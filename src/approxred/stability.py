"""Sampling-based falsifiers for incremental-stability certificates.

Three certificate notions are checked: incremental input-to-state stability
(IISS), incremental uniform bounded-input bounded-state stability (IUBIBSS),
and fiberwise practical stability. All three share one certificate type,
``IncrementalCertificate``, and one condition table (Angeli 2002); see its
docstring. Each checker, and ``reduction.check_exact_reducible``, streams
Sobol samples of its boxes through ``_falsify``, the one sampled-check core,
evaluates its conditions with a small numerical slack, and either reports the
worst violation (with a witness precise enough to re-evaluate) or records
that no counterexample was found.

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

from .base import DEFAULT_LYAPUNOV_SAMPLES, DEFAULT_SEED, EvaluationError, InputError
from .core import (
    Box,
    ComparisonFunction,
    ControlSystemDef,
    VectorFieldDef,
    check_retained,
)
from .numdiff import batch_eval
from .sampling import sobol_blocks, sobol_points

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
    """Candidate incremental Lyapunov data: a map V with its gradient,
    sandwich bounds, an input gain ``mu`` and a decay rate ``alpha_decay``
    (each None when absent), and a threshold offset ``xi``.

    Its conditions on a radius r: alpha_lower(r) <= V <= alpha_upper(r) where
    r >= xi, and Vdot <= -alpha_decay(r), or Vdot <= 0 without a rate, where
    r >= gain + xi. IISS and IUBIBSS take a pair map V(x1, x2), r = |x1-x2|
    and the gain mu(|u1-u2|). IISS takes a rate and xi = 0. IUBIBSS takes a
    positive xi: its gain inequality mu(r) + xi >= r + xi needs an offset at
    r = 0 that the pure class-K-infinity families cannot supply on their own.
    ``dataclasses.replace(cert, alpha_decay=None, xi=xi)`` lifts an IISS
    certificate to an IUBIBSS one. A fiberwise certificate is a V of one
    state with xi its threshold, no gain and no rate, checked at r = the fiber
    norm with gain 0.
    """

    V: Callable
    alpha_lower: ComparisonFunction
    alpha_upper: ComparisonFunction
    mu: ComparisonFunction | None = None
    alpha_decay: ComparisonFunction | None = None
    xi: float = 0.0


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
    _require_finite(vals, "V produced a non-finite value at x1={x1}, x2={x2}", x1=X1, x2=X2)
    F1 = batch_eval(F.rhs, X1, U1, out_dim=F.n)
    F2 = batch_eval(F.rhs, X2, U2, out_dim=F.n)
    out = np.einsum("ni,ni->n", g1, F1) + np.einsum("ni,ni->n", g2, F2)
    _require_finite(out, "non-finite derivative of V along F at x1={x1}", x1=X1)
    return vals, out


def _require_finite(values, message: str, active=True, **rows) -> None:
    """Raise ``EvaluationError`` at the first ``active`` sample whose value is
    not finite, ``message`` formatted with that sample's row of each block."""
    bad = active & ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationError(message.format(**{key: X[i].tolist() for key, X in rows.items()}))


def _worst(violations: np.ndarray, mask: np.ndarray) -> int | None:
    """Index of the largest violation within ``mask``, ties to the lowest index."""
    idx = np.flatnonzero(mask & (violations > 0))
    if idx.size == 0:
        return None
    order = np.argmax(violations[idx])
    return int(idx[order])


def _table(cert: IncrementalCertificate, r, V, vd, gain) -> list:
    """``cert``'s condition rows at radii r: the sandwich bounds on V where
    r >= xi, and the decay bound on V's derivative vd where r >= gain + xi."""
    lo, hi = cert.alpha_lower.value(r), cert.alpha_upper.value(r)
    rate = cert.alpha_decay
    bound = np.zeros_like(vd) if rate is None else -rate.value(r)
    return [
        ("lower_bound", r >= cert.xi, (lo - V) - _slack(V), lo, V),
        ("upper_bound", r >= cert.xi, (V - hi) - _slack(V), V, hi),
        ("decay", r >= gain + cert.xi, (vd - bound) - _slack(vd), vd, bound),
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
    mask selected no sample at all. A check whose masks select no sample for
    any condition tests nothing, and raises ``InputError``.
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
    untested = [name for name, *_ in table if not checked[name]]
    if len(untested) == len(table):
        raise InputError(f"none of the {n_samples} samples lies in the domain of any condition"
                         f" ({', '.join(untested)}): the check would test nothing")
    report = dict(samples_checked=n_samples, boxes=boxes, condition_counts=counts(checked))
    suffix = f"; no sample was tested for {', '.join(untested)}" if untested else ""
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
    samples, whose worst violation is ``prior``. V and F are evaluated only
    where r = |x1-x2| >= xi, the sandwich domain, which holds the decay
    domain: only there does a non-finite value raise ``EvaluationError``."""
    if state_box.dim != F.n or input_box.dim != F.m_in:
        raise InputError("box dimensions do not match the control system")
    if state_box.diameter() == 0:
        raise InputError("the state box has zero diameter, so every sampled pair "
                         "coincides and only r = 0 would be tested")

    def conditions(X1, X2, U1, U2):
        r = np.linalg.norm(X1 - X2, axis=1)
        gain = cert.mu.value(np.linalg.norm(U1 - U2, axis=1))
        rows = np.flatnonzero(r >= cert.xi)
        if len(rows) == len(r):  # every pair in the domain, as always with xi = 0
            return _table(cert, r, *_pair_terms(cert.V, F, X1, X2, U1, U2), gain)
        V, vd = np.full(len(r), np.nan), np.full(len(r), np.nan)
        V[rows], vd[rows] = _pair_terms(cert.V, F, X1[rows], X2[rows], U1[rows], U2[rows])
        return _table(cert, r, V, vd, gain)

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
    n_samples: int = DEFAULT_LYAPUNOV_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> CertificateReport:
    """Falsify an IISS Lyapunov candidate, which has a decay rate and xi = 0,
    on sampled state and input pairs: the sandwich bounds at every sample, and
    Vdot <= -alpha_decay(|x1-x2|) where |x1-x2| >= mu(|u1-u2|)."""
    if cert.alpha_decay is None or cert.xi != 0:
        raise InputError("an IISS certificate needs a decay rate alpha_decay and xi = 0")
    if cert.mu is None:
        raise InputError("an IISS certificate needs an input gain mu")
    return _check_pairs(F, cert, state_box, input_box, n_samples, seed)


def check_iubibss(
    F: ControlSystemDef,
    cert: IncrementalCertificate,
    state_box: Box,
    input_box: Box,
    n_samples: int = DEFAULT_LYAPUNOV_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> CertificateReport:
    """Falsify an IUBIBSS Lyapunov candidate, which has a positive xi: the
    certificate's sampled conditions, after the gain inequality
    mu(r) + xi >= r + xi on a 1-d grid over [0, diameter(input_box)]. V and
    F are evaluated only on the pairs with |x1-x2| >= xi."""
    if not (cert.xi > 0):
        raise InputError("threshold xi must be positive")
    if not (cert.xi < np.inf and cert.mu is not None):  # either passes any field
        raise InputError("an IUBIBSS certificate needs a finite xi and an input gain mu")
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
    m: int,
    cert: IncrementalCertificate,
    box: Box,
    n_samples: int = DEFAULT_LYAPUNOV_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> CertificateReport:
    """Falsify a fiberwise practical stability candidate on a box, the fiber
    being the last n - m coordinates.

    ``cert`` holds a V of one state and its threshold as ``xi``, finite and
    nonnegative; its gain is not read. Its conditions are checked at r = the
    fiber norm with gain 0, so both hold on samples whose fiber norm is at
    least xi: the sandwich bounds in the fiber norm, and Vdot = grad V . f <= 0
    (<= -alpha_decay(r) with a rate). A non-finite V or Vdot on such a sample
    is an evaluation error.
    """
    check_retained(m, f.n)
    if box.dim != f.n:
        raise InputError("box dimension does not match the field")
    if not (0 <= cert.xi < np.inf):  # a NaN or infinite threshold selects no sample
        raise InputError(f"threshold xi must be finite and nonnegative, got {cert.xi}")

    def conditions(X):
        fiber = np.linalg.norm(X[:, m:], axis=1)
        active = fiber >= cert.xi
        V, (G,) = _value_and_grads(cert.V, X)
        _require_finite(V, "V produced a non-finite value at {x}", active, x=X)
        vd = np.einsum("ni,ni->n", G, batch_eval(f.rhs, X, out_dim=f.n))
        _require_finite(vd, "non-finite derivative of V along f at {x}", active, x=X)
        return _table(cert, fiber, V, vd, 0)

    def counts(checked):
        return {"active_samples": checked["lower_bound"]}

    return _falsify(box, {"x": slice(None)}, n_samples, seed, conditions, {"box": box}, counts)


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
    if J.shape[1] == 1:  # a gradient's operator norm is its length: no LAPACK call
        G = J[:, 0]
        # scaled by a power of two, which is exact, so that no square leaves
        # float range: the bits are the unscaled length's wherever none does
        scale = np.ldexp(1.0, np.frexp(np.abs(G).max())[1] - 1)
        return float(np.linalg.norm(G / scale, axis=1).max() * scale)
    return float(np.linalg.svd(J, compute_uv=False)[:, 0].max())
