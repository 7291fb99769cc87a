"""Run one approxred command in-process with spans around each layer.

    python bench/trace_shim.py SPANS.json -- <approxred argv...>

The shim wraps the public functions of each approxred module from outside,
patching every wrapper into each namespace that bound the function (so
``approxred.reduction.integrate_field`` and ``approxred.cli.integrate_field``
both record), and wraps the ``rhs`` callables of the entries ``lookup``
returns. It then calls ``approxred.cli.main(argv)``, writes the spans it kept
in memory to SPANS.json, restores every patched attribute and exits with
main's return code. Outputs are byte-identical to an untraced run.

A span is ``[id, name, start, end, parent, failed, count]``; ``count`` is the
work a call reports in its result (accepted steps, points, samples checked,
row-wise fallback evaluations). Right-hand-side calls are too many to keep one
by one, so each is folded into a leaf record
``[parent, name, scalar_calls, batch_calls, batch_points, seconds]``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from time import perf_counter

# (module, function) pairs to wrap; each span is named "<module>.<function>"
TARGETS = [
    ("cli", "main"),
    ("cli", "_csv_document"),
    ("cli", "_json_document"),
    ("cli", "_emit"),
    ("systems", "lookup"),
    ("user_systems", "load_system_config"),
    ("integrate", "integrate_field"),
    ("integrate", "resample"),
    ("reduction", "estimate_delta"),
    ("reduction", "measure_deviation"),
    ("reduction", "check_exact_reducible"),
    ("sampling", "sobol_points"),
    ("numdiff", "jacobian_batch"),
    ("numdiff", "gradient_batch"),
    ("numdiff", "pair_gradient_batch"),
    ("numdiff", "batch_eval"),
    ("numdiff", "batch_eval_pair"),
    ("stability", "check_iiss"),
    ("stability", "check_iubibss"),
    ("stability", "check_fiberwise"),
    ("stability", "estimate_lipschitz"),
]


class Tracer:
    """Spans and leaf counters of one command, kept in memory."""

    def __init__(self):
        self.spans = []
        self.leaves = {}  # (parent, name) -> [scalar, batch, points, seconds]
        self.stack = [None]
        self.patched = []  # (module, attribute, original)

    # ------------------------------------------------------------- recording

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(args)`` may replace the call's arguments and return a
        callable giving the span's count; ``after(result)`` may replace the
        result and returns ``(result, count)``.
        """

        def wrapped(*args, **kwargs):
            record = [len(self.spans), name, 0.0, 0.0, self.stack[-1], False, 0]
            self.spans.append(record)
            self.stack.append(record[0])
            counter = None
            if before is not None:
                args, counter = before(args)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[3] = perf_counter()
                self.stack.pop()
            if counter is not None:
                record[6] = counter()
            if after is not None:
                result, record[6] = after(result)
            return result

        return wrapped

    def leaf(self, name, fn):
        """Wrap a right-hand side; calls fold into their parent span's record."""

        def wrapped(x, *rest):
            t0 = perf_counter()
            try:
                return fn(x, *rest)
            finally:
                dt = perf_counter() - t0
                rec = self.leaves.setdefault((self.stack[-1], name), [0, 0, 0, 0.0])
                if getattr(x, "ndim", 1) <= 1:
                    rec[0] += 1
                else:
                    rec[1] += 1
                    rec[2] += math.prod(x.shape[:-1])
                rec[3] += dt

        return wrapped

    # --------------------------------------------------------------- hooks

    def _rowwise(self, args):
        """Count the calls ``batch_eval*`` makes after its vectorized attempt."""
        fn, calls = args[0], [0]

        def counted(*a):
            calls[0] += 1
            return fn(*a)

        return (counted, *args[1:]), lambda: max(calls[0] - 1, 0)

    def _wrap_entry(self, entry):
        """The entry with every rhs and certificate factory traced."""
        from approxred import systems

        layer = "systems" if entry.name in systems.REGISTRY else "user_systems"
        rhs = f"{layer}.rhs"

        def traced_field(f):
            return None if f is None else dataclasses.replace(f, rhs=self.leaf(rhs, f.rhs))

        def after_cert(spec):
            if spec.control is not None:
                spec = dataclasses.replace(spec, control=traced_field(spec.control))
            return spec, 0

        certs = {
            name: self.span("systems.cert_setup", factory, after=after_cert)
            for name, factory in entry.certificates.items()
        }
        return dataclasses.replace(
            entry,
            field=traced_field(entry.field),
            reduced_override=traced_field(entry.reduced_override),
            certificates=certs,
        ), 0

    def hooks(self, name):
        after_count = {
            "integrate.integrate_field": lambda traj: (traj, len(traj.times) - 1),
            "sampling.sobol_points": lambda pts: (pts, len(pts)),
            "stability.check_iiss": lambda rep: (rep, rep.samples_checked),
            "stability.check_iubibss": lambda rep: (rep, rep.samples_checked),
            "stability.check_fiberwise": lambda rep: (rep, rep.samples_checked),
            "systems.lookup": self._wrap_entry,
        }
        before = self._rowwise if name.startswith("numdiff.batch_eval") else None
        return before, after_count.get(name)

    # ------------------------------------------------------------ patching

    def install(self):
        """Patch a wrapper for each target into every approxred namespace."""
        # a plain import statement, so that -X importtime reports it
        import approxred.cli  # noqa: F401  (imports every module)

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "approxred" or k.startswith("approxred.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"approxred.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            before, after = self.hooks(name)
            wrapper = self.span(name, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[p, n, *rec] for (p, n), rec in self.leaves.items()],
        }


def run(argv: list[str], spans_path: str) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        from approxred import cli

        return cli.main(argv)
    finally:
        tracer.restore()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: trace_shim.py SPANS.json -- <approxred argv...>")
    sys.exit(run(sys.argv[3:], sys.argv[1]))
