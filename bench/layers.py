"""Per-layer metrics from the spans of traced commands and ``-X importtime``.

Layers are approxred's modules; each metric name starts with its module. A
layer's self time is its spans' duration minus the part covered by child
spans and right-hand-side calls.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# metric name -> unit, in the order results print them
UNITS = {
    "import.approxred_s": "s",
    "import.numpy_s": "s",
    "import.scipy_integrate_s": "s",
    "import.scipy_interpolate_s": "s",
    "import.scipy_stats_s": "s",
    "cli.main_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_out": "bytes",
    "systems.lookup_s": "s",
    "systems.cert_setup_s": "s",
    "systems.rhs_scalar_calls": "count",
    "systems.rhs_batch_calls": "count",
    "systems.rhs_batch_points": "count",
    "systems.rhs_s": "s",
    "user_systems.load_s": "s",
    "user_systems.rhs_calls": "count",
    "user_systems.rhs_s": "s",
    "integrate.calls": "count",
    "integrate.steps": "count",
    "integrate.rhs_evals": "count",
    "integrate.rhs_per_step": "ratio",
    "integrate.self_s": "s",
    "integrate.failures": "count",
    "integrate.resample_calls": "count",
    "integrate.resample_s": "s",
    "reduction.estimate_delta_s": "s",
    "reduction.measure_deviation_calls": "count",
    "reduction.self_s": "s",
    "reduction.check_exact_s": "s",
    "sampling.sobol_calls": "count",
    "sampling.sobol_points": "count",
    "sampling.sobol_s": "s",
    "numdiff.jacobian_batch_s": "s",
    "numdiff.gradient_s": "s",
    "numdiff.batch_eval_calls": "count",
    "numdiff.rowwise_evals": "count",
    "stability.check_s": "s",
    "stability.self_s": "s",
    "stability.samples_checked": "count",
    "stability.estimate_lipschitz_s": "s",
    "trace.overhead_frac": "ratio",
}

IMPORTS = {
    "import.approxred_s": "approxred",
    "import.numpy_s": "numpy",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_interpolate_s": "scipy.interpolate",
    "import.scipy_stats_s": "scipy.stats",
}

CHECKS = ("stability.check_iiss", "stability.check_iubibss", "stability.check_fiberwise")
REDUCTION = ("reduction.estimate_delta", "reduction.measure_deviation",
             "reduction.check_exact_reducible")
BATCH_EVAL = ("numdiff.batch_eval", "numdiff.batch_eval_pair")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of each module named in ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


def command_layers(trace: dict) -> dict:
    """Additive layer totals of one traced command (no ratios, no imports)."""
    spans, leaves = trace["spans"], trace["leaves"]
    names = {s[0]: s[1] for s in spans}
    covered = defaultdict(float)
    for _id, _name, start, end, parent, _failed, _count in spans:
        covered[parent] += end - start
    rhs = defaultdict(lambda: [0, 0, 0, 0.0])
    integrate_rhs = 0
    for parent, name, scalar, batch, points, seconds in leaves:
        covered[parent] += seconds
        agg = rhs[name]
        agg[0] += scalar
        agg[1] += batch
        agg[2] += points
        agg[3] += seconds
        if names.get(parent) == "integrate.integrate_field":
            integrate_rhs += scalar + batch

    def pick(wanted):
        return [s for s in spans if s[1] in wanted]

    def dur(*wanted):
        return sum(s[3] - s[2] for s in pick(wanted))

    def self_time(*wanted):
        return sum(s[3] - s[2] - covered[s[0]] for s in pick(wanted))

    def calls(*wanted):
        return len(pick(wanted))

    def work(*wanted):
        return sum(s[6] for s in pick(wanted))

    sys_rhs, user_rhs = rhs["systems.rhs"], rhs["user_systems.rhs"]
    return {
        "cli.main_s": dur("cli.main"),
        "cli.emit_s": dur("cli._csv_document", "cli._json_document", "cli._emit"),
        "systems.lookup_s": dur("systems.lookup"),
        "systems.cert_setup_s": dur("systems.cert_setup"),
        "systems.rhs_scalar_calls": sys_rhs[0],
        "systems.rhs_batch_calls": sys_rhs[1],
        "systems.rhs_batch_points": sys_rhs[2],
        "systems.rhs_s": sys_rhs[3],
        "user_systems.load_s": dur("user_systems.load_system_config"),
        "user_systems.rhs_calls": user_rhs[0] + user_rhs[1],
        "user_systems.rhs_s": user_rhs[3],
        "integrate.calls": calls("integrate.integrate_field"),
        "integrate.steps": work("integrate.integrate_field"),
        "integrate.rhs_evals": integrate_rhs,
        "integrate.self_s": self_time("integrate.integrate_field"),
        "integrate.failures": sum(s[5] for s in pick(("integrate.integrate_field",))),
        "integrate.resample_calls": calls("integrate.resample"),
        "integrate.resample_s": dur("integrate.resample"),
        "reduction.estimate_delta_s": dur("reduction.estimate_delta"),
        "reduction.measure_deviation_calls": calls("reduction.measure_deviation"),
        "reduction.self_s": self_time(*REDUCTION),
        "reduction.check_exact_s": dur("reduction.check_exact_reducible"),
        "sampling.sobol_calls": calls("sampling.sobol_points"),
        "sampling.sobol_points": work("sampling.sobol_points"),
        "sampling.sobol_s": dur("sampling.sobol_points"),
        "numdiff.jacobian_batch_s": dur("numdiff.jacobian_batch"),
        "numdiff.gradient_s": dur("numdiff.gradient_batch", "numdiff.pair_gradient_batch"),
        "numdiff.batch_eval_calls": calls(*BATCH_EVAL),
        "numdiff.rowwise_evals": work(*BATCH_EVAL),
        "stability.check_s": dur(*CHECKS),
        "stability.self_s": self_time(*CHECKS, "stability.estimate_lipschitz"),
        "stability.samples_checked": work(*CHECKS),
        "stability.estimate_lipschitz_s": dur("stability.estimate_lipschitz"),
    }


def workload_layers(traces: list[list[dict]]) -> dict:
    """Layer totals of a workload: each command's median over its traced runs, summed.

    ``median_low`` picks an observed run, so counts stay whole numbers.
    """
    totals = defaultdict(int)
    for runs in traces:
        per_run = [command_layers(t) for t in runs]
        for name in per_run[0]:
            totals[name] += statistics.median_low(r[name] for r in per_run)
    steps = totals["integrate.steps"]
    totals["integrate.rhs_per_step"] = totals["integrate.rhs_evals"] / steps if steps else 0.0
    return dict(totals)
