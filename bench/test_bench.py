"""Tests of the benchmark itself; run with ``python -m pytest bench``."""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import trace_shim  # noqa: E402
import workloads  # noqa: E402
from approxred import cli  # noqa: E402
from approxred.systems import lookup  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


def _param_sets(cmd):
    params = dict(cmd.expect.get("params", {}))
    if "param" in cmd.expect:
        return [{**params, cmd.expect["param"]: v} for v in cmd.expect["values"]]
    return [params]


@pytest.mark.parametrize("seed", range(40))
def test_generated_commands_respect_system_constraints(seed):
    for name in workloads.GENERATORS:
        for cmd in workloads.generate(name, seed).commands:
            system = cmd.expect["system"]
            if system not in ("ball-hoop", "cart-pendulum"):
                continue
            for params in _param_sets(cmd):
                if system == "ball-hoop":
                    radius, xi = params.get("R", 5.0), params.get("xi_hoop", 0.1)
                    assert radius * xi**2 < workloads.GRAVITY
                lookup(system, params)  # raises on any violated constraint


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generated_argv_parses(name):
    parser = cli.build_parser()
    for cmd in workloads.generate(name, 3).commands:
        parser.parse_args([*cmd.argv, "--out", "x"])


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_workload_shape(name):
    commands = workloads.generate(name, 3).commands
    # few commands keep a run under 40 executions, where cmd_p50_s, the only
    # percentile reported, is the highest with ten samples beyond it
    assert len(commands) < 20
    # work_per_s needs work to count
    assert any(c.work for c in commands)


# ------------------------------------------------------------------ checks


@pytest.fixture(scope="module")
def refs():
    return checks.load_references(ROOT)


def _bound_doc(delta):
    cmd = workloads.pinned_bound()
    config = {**cmd.expect, "params": {"R": 10.0, "g": 9.81}}
    return cmd, json.dumps({"config": config, "delta_hat": delta}).encode()


def test_pinned_bound_passes_at_its_reference(refs):
    cmd, body = _bound_doc(refs["HOOP_DELTA_R10"])
    assert checks.check(cmd, 0, body, b"", refs) == []


@pytest.mark.parametrize(
    "code, delta, expect_config, problem",
    [
        (3, None, {}, "exit code"),
        (0, 1.001, {}, "HOOP_DELTA_R10"),
        (0, 1.0, {"seed": 43}, "config seed"),
        (0, float("nan"), {}, "non-finite"),
    ],
)
def test_check_flags_bad_runs(refs, code, delta, expect_config, problem):
    cmd, _ = _bound_doc(0.0)
    cmd = workloads.Command(cmd.argv, "json", 0, {**cmd.expect, **expect_config},
                            reference=cmd.reference)
    _, body = _bound_doc(refs["HOOP_DELTA_R10"] * (delta or 1.0))
    found = checks.check(cmd, code, body, b"", refs)
    assert any(problem in p for p in found), found


def test_parse_csv_rejects_ragged_rows():
    with pytest.raises(ValueError):
        checks.parse_csv('# command="simulate"\nt,x0\n0.0,1.0\n1.0\n')


# ------------------------------------------------------------------ shim


def _snapshot():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "approxred" or name.startswith("approxred.")
    }


def test_shim_restores_every_patched_attribute():
    before = _snapshot()
    tracer = trace_shim.Tracer()
    tracer.install()
    assert len(tracer.patched) >= len(trace_shim.TARGETS)
    assert any(getattr(m, a) is not orig for m, a, orig in tracer.patched)
    tracer.restore()
    after = _snapshot()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


USER_SYSTEM = json.dumps(workloads.user_system(random.Random(0)))


@pytest.mark.parametrize(
    "argv, layer",
    [
        (["compare", "--system", "ball-hoop", "--t-end", "3"], "integrate.integrate_field"),
        (["check-lyapunov", "--system", "cart-pendulum", "--certificate", "iubibss",
          "--samples", "256"], "stability.check_iubibss"),
        (["check-exact", "--system", "ball-hoop", "--samples", "64"],
         "numdiff.jacobian_batch"),
        (["bound", "--config", "{tmp}/user.json", "--n-ic", "3", "--t-end", "2"],
         "reduction.estimate_delta"),
    ],
)
def test_shim_leaves_output_bytes_unchanged(tmp_path, capsys, argv, layer):
    (tmp_path / "user.json").write_text(USER_SYSTEM)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    plain, traced = tmp_path / "plain.out", tmp_path / "traced.out"
    code = cli.main([*argv, "--out", str(plain)])
    plain_stdout = capsys.readouterr().out
    spans_path = tmp_path / "spans.json"
    assert trace_shim.run([*argv, "--out", str(traced)], str(spans_path)) == code
    assert capsys.readouterr().out == plain_stdout
    assert traced.read_bytes() == plain.read_bytes()
    trace = json.loads(spans_path.read_text())
    assert layer in {s[1] for s in trace["spans"]}
    assert trace["leaves"], "no rhs call was traced"
    totals = layers.workload_layers([[trace]])
    assert totals["cli.main_s"] > 0
    assert set(totals) | set(layers.IMPORTS) | {"cli.bytes_out", "trace.overhead_frac"} == set(
        layers.UNITS
    )


# ------------------------------------------------------------------ layers


def test_self_time_subtracts_children_and_rhs():
    trace = {
        "spans": [
            [0, "reduction.measure_deviation", 0.0, 10.0, None, False, 0],
            [1, "integrate.integrate_field", 1.0, 5.0, 0, False, 40],
            [2, "integrate.resample", 5.0, 6.0, 0, False, 0],
        ],
        "leaves": [[1, "systems.rhs", 240, 0, 0, 3.0]],
    }
    got = layers.workload_layers([[trace]])
    assert got["reduction.self_s"] == pytest.approx(5.0)
    assert got["integrate.self_s"] == pytest.approx(1.0)
    assert got["integrate.rhs_per_step"] == pytest.approx(6.0)
    assert got["systems.rhs_scalar_calls"] == 240


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1313 |     128465 |       numpy\n"
        "import time:      1718 |    1029699 |   approxred\n"
    )
    assert layers.parse_importtime(text) == {"numpy": 0.128465, "approxred": 1.029699}


# ----------------------------------------------------------------- metrics


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS)
    for name in [*e2e, *per_layer]:
        assert NAME.fullmatch(name), name


def test_cmd_p50_pools_every_execution():
    commands = workloads.generate("deviation", 3).commands[:3]
    execs = [[run.Execution(w, 100.0) for w in walls]
             for walls in ([1.0, 1.1, 1.2, 1.3], [2.0, 2.1], [3.0])]
    probes = [run.Execution(0.5, 50.0)]
    metrics = run.end_to_end(commands, probes, execs, attempted=8, failed=0)
    # the median of per-command medians would be 2.05
    assert metrics["cmd_p50_s"] == 1.3
    assert metrics["wall_s"] == pytest.approx(1.15 + 2.05 + 3.0)


def test_measure_spreads_the_probes_over_the_run(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    order = []

    def timed(kind, wall):
        clock[0] += wall
        order.append(kind)
        return run.Execution(wall, 10.0)

    runner = run.Runner.__new__(run.Runner)
    runner.workload = workloads.generate("falsify", 3)
    runner.probe = lambda: timed("probe", 0.5)
    runner.execute = lambda k, cmd, traced: timed("cmd", 1.0)
    probes, execs, traced = runner.measure(14.0, trace=False)
    assert len(probes) == run.SETUP_PROBES
    assert order[0] == "probe"
    # probe time does not count towards the 14 s, and every 2 s brings a probe
    assert order.count("cmd") == 14
    assert "probe" not in order[-2:]
    assert [len(runs) for runs in execs] == [3, 3, 2, 2, 2, 2]
    assert traced == [[] for _ in execs]
