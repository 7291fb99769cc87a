import json

import numpy as np
import pytest

from approxred.cli import main, parse_metadata
from approxred.numdiff import jacobian
from approxred.systems import lookup


def assert_clean_usage_error(rc, capsys, *needles):
    """Exit 1 with a one-line ``approxred: error:`` message, never a traceback."""
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("approxred: error:") and "Traceback" not in err
    for needle in needles:
        assert needle in err


def write_demo_config(tmp_path, name="demo"):
    doc = {
        "name": name,
        "state": ["y", "z"],
        "m": 1,
        "params": {"a": 2.0},
        "rhs": ["-a*y", "-z + 0.5*y"],
        "x0": [1.0, 0.5],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulate:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(
            [
                "simulate",
                "--system",
                "ball-hoop",
                "--set",
                "R=5",
                "--x0",
                "0.5,0.3",
                "--t-end",
                "20",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "t,x0,x1"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.5
        meta = parse_metadata(text)
        assert meta["system"] == "ball-hoop"
        assert meta["params"]["R"] == 5.0
        assert meta["x0"] == [0.5, 0.3]
        assert meta["seed"] == 42

    def test_unknown_system_is_usage_error(self, capsys):
        rc = main(["simulate", "--system", "unknown"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ball-hoop" in err and "cart-pendulum" in err

    def test_dimension_mismatch_is_usage_error(self):
        assert main(["simulate", "--system", "ball-hoop", "--x0", "0.5"]) == 1

    def test_divergence_is_exit_2(self, tmp_path):
        doc = {
            "name": "blowup",
            "state": ["y", "z"],
            "m": 1,
            "rhs": ["y*y", "-z"],
            "x0": [1.0, 0.1],
        }
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(path), "--t-end", "3"])
        assert rc == 2


class TestCompare:
    def test_summary_and_columns(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main(
            [
                "compare",
                "--system",
                "ball-hoop",
                "--t-end",
                "20",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sup_dev"] > 0
        header = [
            l for l in out.read_text().splitlines() if not l.startswith("#")
        ][0]
        assert header == "t,full_proj_0,reduced_0,deviation"

    def test_exactly_reducible_config(self, tmp_path):
        path = write_demo_config(tmp_path)
        out = tmp_path / "cmp.json"
        rc = main(
            [
                "compare",
                "--config",
                str(path),
                "--t-end",
                "5",
                "--method",
                "rk4",
                "--dt",
                "0.01",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["sup_dev"] <= 1e-8

    def test_cart_deviation_bounded(self, tmp_path):
        out = tmp_path / "cart.json"
        rc = main(
            [
                "compare",
                "--system",
                "cart-pendulum",
                "--t-end",
                "30",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        dev = np.array(doc["deviation"])
        assert np.all(np.isfinite(dev))
        assert doc["summary"]["sup_dev"] < 100.0


class TestSweep:
    def test_radius_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--system",
                "ball-hoop",
                "--param",
                "R",
                "--values",
                "5,10,20,40",
                "--t-end",
                "20",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = [
            l.split(",")
            for l in out.read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        assert len(rows) == 4
        sups = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_single_value_matches_compare(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert (
            main(
                [
                    "sweep",
                    "--system",
                    "ball-hoop",
                    "--param",
                    "R",
                    "--values",
                    "7",
                    "--t-end",
                    "12",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        row = [
            l for l in out.read_text().splitlines() if not l.startswith("#")
        ][1].split(",")
        cmp_out = tmp_path / "cmp.csv"
        assert (
            main(
                [
                    "compare",
                    "--system",
                    "ball-hoop",
                    "--set",
                    "R=7",
                    "--t-end",
                    "12",
                    "--out",
                    str(cmp_out),
                ]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert float(row[1]) == summary["sup_dev"]
        assert float(row[2]) == summary["t_of_sup"]

    def test_unknown_sweep_parameter(self):
        rc = main(
            ["sweep", "--system", "ball-hoop", "--param", "bogus", "--values", "1,2"]
        )
        assert rc == 1


class TestCheckExact:
    def test_hoop_negative_verdict_with_witness(self, tmp_path):
        out = tmp_path / "ce.json"
        rc = main(["check-exact", "--system", "ball-hoop", "--out", str(out)])
        assert rc == 3
        doc = json.loads(out.read_text())
        report = doc["report"]
        assert report["verdict"] == "NOT_REDUCIBLE"
        entry = lookup("ball-hoop", {})
        point = np.array(report["witness"]["point"])
        J = jacobian(entry.field.rhs, point, 2)
        comp = report["witness"]["component"]
        fib = report["witness"]["fiber_index"]
        assert abs(J[comp, 1 + fib]) > doc["config"]["tol"]

    def test_decoupled_config_positive_verdict(self, tmp_path):
        path = write_demo_config(tmp_path)
        rc = main(["check-exact", "--config", str(path)])
        assert rc == 0

    def test_huge_tolerance_flips_verdict(self):
        rc = main(["check-exact", "--system", "ball-hoop", "--tol", "1e9"])
        assert rc == 0

    def test_zero_samples_is_usage_error(self, capsys):
        rc = main(["check-exact", "--system", "ball-hoop", "--samples", "0"])
        assert_clean_usage_error(rc, capsys, "2**30", "got 0")

    def test_more_than_64_dimensions_is_usage_error(self, tmp_path, capsys):
        n = 65
        doc = {
            "name": "wide",
            "state": [f"x{i}" for i in range(n)],
            "m": 1,
            "rhs": [f"-x{i}" for i in range(n)],
            "x0": [0.0] * n,
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        rc = main(["check-exact", "--config", str(path), "--samples", "4"])
        assert_clean_usage_error(rc, capsys, "64", "got 65")


class TestCheckLyapunov:
    def test_hoop_fiberwise_passes(self, tmp_path):
        out = tmp_path / "fw.json"
        rc = main(
            [
                "check-lyapunov",
                "--system",
                "ball-hoop",
                "--certificate",
                "fiberwise",
                "--samples",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["report"]["verdict"] == "NO_COUNTEREXAMPLE"

    def test_hoop_iiss_passes(self):
        rc = main(
            [
                "check-lyapunov",
                "--system",
                "ball-hoop",
                "--certificate",
                "iiss",
                "--samples",
                "20000",
                "--out",
                "/dev/null",
            ]
        )
        assert rc == 0

    def test_negated_certificate_fails(self, tmp_path):
        out = tmp_path / "neg.json"
        rc = main(
            [
                "check-lyapunov",
                "--system",
                "ball-hoop",
                "--certificate",
                "fiberwise",
                "--negate-v",
                "--samples",
                "2000",
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        report = json.loads(out.read_text())["report"]
        assert report["verdict"] == "COUNTEREXAMPLE"
        assert report["counterexample"]["condition"] in (
            "lower_bound",
            "upper_bound",
            "decay",
        )

    def test_unknown_certificate_name(self, capsys):
        rc = main(
            ["check-lyapunov", "--system", "ball-hoop", "--certificate", "bogus"]
        )
        assert rc == 1
        assert "fiberwise" in capsys.readouterr().err

    def test_negative_samples_is_usage_error(self, capsys):
        rc = main(
            ["check-lyapunov", "--system", "ball-hoop", "--certificate", "iiss",
             "--samples", "-5"]
        )
        assert_clean_usage_error(rc, capsys, "2**30", "got -5")


class TestBound:
    def test_json_fields(self, tmp_path):
        out = tmp_path / "b.json"
        rc = main(
            [
                "bound",
                "--system",
                "ball-hoop",
                "--set",
                "R=10",
                "--box=-0.5,0.5;-0.3,0.3",
                "--n-ic",
                "20",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "projected"
        assert doc["n_ic"] == 20
        assert doc["failures"] == 0
        assert doc["seed"] == 42
        assert doc["delta_hat"] > 0

    def test_exactly_reducible_bound_is_tiny(self, tmp_path):
        path = write_demo_config(tmp_path)
        out = tmp_path / "b.json"
        rc = main(
            [
                "bound",
                "--config",
                str(path),
                "--box=-1,1;-1,1",
                "--n-ic",
                "8",
                "--t-end",
                "4",
                "--method",
                "rk4",
                "--dt",
                "0.02",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["delta_hat"] <= 1e-8

    def test_zero_ic_count_is_usage_error(self):
        rc = main(["bound", "--system", "ball-hoop", "--n-ic", "0"])
        assert rc == 1

    # one grid point is t = 0 alone, where a projected pair never deviates
    @pytest.mark.parametrize(
        "command",
        [["bound", "--n-ic", "2"], ["compare"], ["sweep", "--param", "R", "--values", "5"]],
    )
    @pytest.mark.parametrize("n_grid", ["1", "0", "-3"])
    def test_degenerate_grid_is_usage_error(self, capsys, command, n_grid):
        rc = main([*command, "--system", "ball-hoop", "--n-grid", n_grid])
        assert_clean_usage_error(rc, capsys, "n_grid", f"got {n_grid}")

    def test_cross_mode(self, tmp_path):
        out = tmp_path / "cross.json"
        rc = main(
            [
                "bound",
                "--system",
                "ball-hoop",
                "--box=-0.3,0.3;-0.2,0.2",
                "--n-ic",
                "16",
                "--mode",
                "cross",
                "--t-end",
                "4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "cross"
        # independent reduced starts make the gap at least the time-zero spread
        assert doc["delta_hat"] > 0.3


class TestDecompositionOverride:
    def test_m_out_of_range_is_usage_error(self):
        assert main(["compare", "--system", "cart-pendulum", "--m", "5"]) == 1
        assert main(["compare", "--system", "cart-pendulum", "--m", "0"]) == 1

    def test_override_drops_bundled_reduction(self, tmp_path):
        # with m=1 the cart keeps only x; the slice of dx/dt = v at v=0 is 0,
        # so the reduced run is constant and the deviation stays bounded
        out = tmp_path / "m1.json"
        rc = main(
            [
                "compare",
                "--system",
                "cart-pendulum",
                "--m",
                "1",
                "--t-end",
                "5",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["m"] == 1
        red = np.array(doc["reduced"])
        assert np.allclose(red, red[0], atol=1e-12)


    def test_sweep_m_out_of_range_is_usage_error(self, capsys):
        rc = main(
            ["sweep", "--system", "cart-pendulum", "--m", "7",
             "--param", "d", "--values", "1", "--t-end", "1"]
        )
        assert_clean_usage_error(rc, capsys, "--m must be in [1, 3]")

    def test_sweep_honours_m(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        argv = ["--system", "cart-pendulum", "--m", "1", "--t-end", "1"]
        rc = main(["sweep", *argv, "--param", "d", "--values", "1",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["m"] == 1
        assert main(["compare", *argv, "--set", "d=1", "--out", str(tmp_path / "c.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["sup_dev"] == summary["sup_dev"]


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "traj.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "approxred",
                "simulate",
                "--system",
                "ball-hoop",
                "--t-end",
                "1",
                "--out",
                str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_exit_code_2_from_shell(self, tmp_path):
        import subprocess
        import sys

        doc = {
            "name": "blowup",
            "state": ["y", "z"],
            "m": 1,
            "rhs": ["y*y", "-z"],
            "x0": [1.0, 0.1],
        }
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "approxred", "simulate", "--config", str(path), "--t-end", "3"],
            capture_output=True,
        )
        assert proc.returncode == 2


class TestReproducibility:
    def test_sweep_twice_is_byte_identical(self, tmp_path):
        args = [
            "sweep",
            "--system",
            "ball-hoop",
            "--param",
            "R",
            "--values",
            "5,10",
            "--t-end",
            "5",
            "--seed",
            "7",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "c.json"
        monkeypatch.setenv("APPROXRED_SEED", "123")
        main(
            [
                "check-exact",
                "--system",
                "ball-hoop",
                "--samples",
                "16",
                "--out",
                str(out),
            ]
        )
        assert json.loads(out.read_text())["config"]["seed"] == 123

    def test_metadata_round_trips_to_same_output(self, tmp_path):
        out1 = tmp_path / "r1.csv"
        assert (
            main(
                [
                    "compare",
                    "--system",
                    "ball-hoop",
                    "--set",
                    "R=10",
                    "--x0",
                    "0.4,0.2",
                    "--t-end",
                    "8",
                    "--seed",
                    "5",
                    "--out",
                    str(out1),
                ]
            )
            == 0
        )
        meta = parse_metadata(out1.read_text())
        argv = [
            meta["command"],
            "--system",
            meta["system"],
            "--x0",
            ",".join(repr(v) for v in meta["x0"]),
            "--t-end",
            repr(meta["t_end"]),
            "--rtol",
            repr(meta["rtol"]),
            "--atol",
            repr(meta["atol"]),
            "--method",
            meta["method"],
            "--seed",
            str(meta["seed"]),
            "--m",
            str(meta["m"]),
            "--n-grid",
            str(meta["n_grid"]),
            "--format",
            meta["format"],
        ]
        for key, value in meta["params"].items():
            argv += ["--set", f"{key}={value!r}"]
        out2 = tmp_path / "r2.csv"
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestNegativeSeed:
    """A seed below 0 exits 1 cleanly, from the flag or the environment."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-exact", "--system", "ball-hoop", "--seed", "-1"],
            *(
                ["check-lyapunov", "--system", system, "--certificate", cert, "--seed", "-3"]
                for system, cert in (
                    ("ball-hoop", "iiss"),
                    ("ball-hoop", "fiberwise"),
                    ("cart-pendulum", "iubibss"),
                )
            ),
            ["bound", "--system", "ball-hoop", "--n-ic", "4", "--seed", "-3"],
        ],
        ids=lambda argv: "-".join(argv[::2]),
    )
    def test_seed_flag(self, argv, tmp_path, capsys):
        rc = main([*argv, "--out", str(tmp_path / "out.json")])
        assert_clean_usage_error(rc, capsys, "non-negative", f"got {argv[-1]}")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-exact", "--system", "ball-hoop"],
            ["check-lyapunov", "--system", "ball-hoop", "--certificate", "iiss"],
            ["bound", "--system", "ball-hoop", "--n-ic", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_environment_variable(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("APPROXRED_SEED", "-3")
        assert_clean_usage_error(main(argv), capsys, "non-negative", "got -3")


@pytest.mark.filterwarnings("error")
class TestArithmeticInExpressions:
    """Arithmetic errors and complex values in a config rhs exit 2, never a traceback."""

    @pytest.mark.parametrize("expr", ["1/0 + y", "-z + 10.0**400", "(-8)**(1/3) - y"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--t-end", "1"],
            ["bound", "--n-ic", "4", "--t-end", "1"],
            ["check-exact", "--samples", "64"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exit_2_naming_the_expression(self, expr, argv, tmp_path, capsys):
        doc = {"name": "arith", "state": ["y", "z"], "m": 1, "rhs": ["-y", expr]}
        path = tmp_path / "arith.json"
        path.write_text(json.dumps(doc))
        rc = main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("approxred: numerical failure:") and "Traceback" not in err
        assert repr(expr) in err


def run_in_subprocess(argv, timeout=120, script=None):
    """Run ``python -m approxred argv`` (or ``script``) in a fresh interpreter."""
    import os
    import subprocess
    import sys

    import approxred

    src = os.path.dirname(os.path.dirname(approxred.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    head = ["-c", script] if script is not None else ["-m", "approxred"]
    return subprocess.run(
        [sys.executable, *head, *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


# runs a command in-process, then prints its exit code and the loaded modules
# that start with the package name given as the second argument
MODULES_SCRIPT = (
    "import json, sys\n"
    "from approxred import cli\n"
    "try:\n"
    "    rc = cli.main(json.loads(sys.argv[1]))\n"
    "except SystemExit as stop:  # --version exits from argparse\n"
    "    rc = stop.code\n"
    "prefix = sys.argv[2]\n"
    "print(rc, sorted(m for m in sys.modules if (m + '.').startswith(prefix + '.')))\n"
)


class TestImportFloor:
    """No command imports scipy: the package runs on numpy alone."""

    def test_no_command_imports_scipy(self, tmp_path):
        out = ["--out", str(tmp_path / "o.csv")]
        commands = [
            ["--version"],
            ["simulate", "--system", "ball-hoop", "--t-end", "2", *out],
            ["simulate", "--system", "cart-pendulum", "--method", "rk4", "--dt", "0.01", *out],
            ["compare", "--system", "cart-pendulum", "--t-end", "3", *out],
            ["sweep", "--system", "ball-hoop", "--param", "R", "--values", "5,10", *out],
            ["check-exact", "--system", "ball-hoop", "--tol", "1e9", *out],
            ["check-lyapunov", "--system", "ball-hoop", "--certificate", "iiss",
             "--samples", "1000", *out],
            ["bound", "--system", "ball-hoop", "--n-ic", "4", "--t-end", "2", *out],
        ]
        for argv in commands:
            proc = run_in_subprocess([json.dumps(argv), "scipy"], script=MODULES_SCRIPT)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip().splitlines()[-1] == "0 []", argv

    def test_sampled_commands_leave_numpy_random_unloaded(self, tmp_path):
        # the Sobol scramble bits come from the in-house PCG64 stream
        out = ["--out", str(tmp_path / "o.json")]
        commands = [
            ["check-exact", "--system", "cart-pendulum", "--samples", "1000", *out],
            ["check-lyapunov", "--system", "ball-hoop", "--certificate", "fiberwise",
             "--samples", "1000", *out],
            ["check-lyapunov", "--system", "ball-hoop", "--certificate", "iiss",
             "--samples", "1000", *out],
            ["check-lyapunov", "--system", "cart-pendulum", "--certificate", "iubibss",
             "--samples", "1000", *out],
            ["bound", "--system", "ball-hoop", "--n-ic", "4", "--t-end", "2", *out],
        ]
        for argv in commands:
            proc = run_in_subprocess([json.dumps(argv), "numpy.random"], script=MODULES_SCRIPT)
            assert proc.returncode == 0, proc.stderr
            rc, loaded = proc.stdout.strip().splitlines()[-1].split(" ", 1)
            assert rc in ("0", "3") and loaded == "[]", argv

    def test_no_module_imports_scipy(self):
        import ast
        import pathlib

        import approxred

        for path in pathlib.Path(approxred.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] != "scipy", path

    def test_no_module_names_numpy_random(self):
        import ast
        import pathlib

        import approxred

        for path in pathlib.Path(approxred.__file__).parent.glob("*.py"):
            text = path.read_text()
            assert "np.random" not in text and "numpy.random" not in text, path
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                    assert "random" not in [a.name for a in node.names], path


class TestNonFiniteSettings:
    """A non-finite horizon, step or tolerance exits 1 at once, in every command
    that integrates: no hang, no traceback, no warning."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--t-end", "inf"],
            ["simulate", "--t-end", "inf", "--method", "rk4", "--dt", "0.1"],
            ["simulate", "--method", "rk4", "--dt", "nan"],
            ["compare", "--t-end", "inf"],
            ["compare", "--atol", "nan"],
            ["sweep", "--param", "R", "--values", "5,10", "--t-end", "inf"],
            ["bound", "--n-ic", "4", "--t-end", "inf"],
            ["bound", "--n-ic", "4", "--rtol", "inf"],
        ],
        ids=" ".join,
    )
    def test_exit_1_in_a_fresh_process(self, argv):
        proc = run_in_subprocess([*argv, "--system", "ball-hoop"], timeout=60)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("approxred: error:") and "must be finite" in lines[0]


GRID_COMMANDS = [
    ["bound", "--n-ic", "2"], ["compare"], ["sweep", "--param", "R", "--values", "5"]
]


class TestGridLimit:
    """More than 100000 grid points is a usage error, raised before the grid
    is built."""

    @pytest.mark.parametrize("command", GRID_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("n_grid", ["100001", "100000000"])
    def test_above_the_limit_is_usage_error(self, command, n_grid, capsys, monkeypatch):
        linspace = np.linspace

        def small_linspace(start, stop, num=50, **kwargs):
            assert num <= 100_000, "the grid was built"
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", small_linspace)
        rc = main([*command, "--system", "ball-hoop", "--n-grid", n_grid])
        assert_clean_usage_error(rc, capsys, "at most 100000", f"got {n_grid}")

    def test_the_limit_itself_runs(self, tmp_path):
        out = tmp_path / "cmp.csv"
        argv = ["compare", "--system", "ball-hoop", "--t-end", "0.5"]
        assert main([*argv, "--n-grid", "100000", "--out", str(out)]) == 0


class TestTinyHorizon:
    """A horizon too short to interpolate on exits 2 with one clean line and
    no warning, never with NaN rows."""

    @pytest.mark.parametrize("command", GRID_COMMANDS, ids=" ".join)
    def test_exit_2_in_a_fresh_process(self, command, tmp_path):
        out = tmp_path / "out"
        proc = run_in_subprocess(
            [*command, "--system", "ball-hoop", "--t-end", "1e-300", "--n-grid", "3",
             "--out", str(out)],
            timeout=60,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("approxred: numerical failure:")
        assert not out.exists()

    def test_bound_names_the_overflow_as_compare_does(self):
        # both runs reach the horizon, so no sampled pair failed to integrate
        argv = ["--system", "ball-hoop", "--t-end", "1e-300", "--n-grid", "3"]
        bound = run_in_subprocess(["bound", "--n-ic", "2", *argv], timeout=60)
        compare = run_in_subprocess(["compare", *argv], timeout=60)
        assert bound.returncode == compare.returncode == 2
        assert "overflowed" in compare.stderr
        assert bound.stderr == compare.stderr


# runs the command given as arguments and prints its exit code and peak RSS
PEAK_RSS_SCRIPT = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(proc.returncode, usage.ru_maxrss)\n"
)


class TestGridMemory:
    """bound holds at most a fixed byte budget of grid values, whatever --n-grid."""

    def test_largest_grid_stays_small(self, tmp_path):
        import sys

        out = tmp_path / "bound.json"
        argv = ["bound", "--system", "cart-pendulum", "--n-ic", "128", "--t-end", "1",
                "--n-grid", "100000", "--out", str(out)]
        # a small launcher reaps the command: a child's peak RSS counts the
        # process it was forked from, here the launcher, not this test run
        proc = run_in_subprocess([sys.executable, "-m", "approxred", *argv], script=PEAK_RSS_SCRIPT)
        rc, peak_kib = map(int, proc.stdout.split())
        assert rc == 0
        assert peak_kib < 100 * 1024
        # the estimate of one block holding all 128 rows, pinned
        assert json.loads(out.read_text())["delta_hat"] == 1.7920085863618584


@pytest.mark.filterwarnings("error")
class TestNonFiniteBoxes:
    """A box with an infinite or NaN bound, or an overflowing width, exits 1."""

    @pytest.mark.parametrize("bad", ["-inf,1", "0,inf", "nan,1", "-1e308,1e308"])
    @pytest.mark.parametrize(
        "argv,flag,dim",
        [
            (["check-exact", "--system", "ball-hoop", "--samples", "64"], "--box", 2),
            (["check-lyapunov", "--system", "ball-hoop", "--certificate", "fiberwise",
              "--samples", "64"], "--box", 2),
            (["check-lyapunov", "--system", "ball-hoop", "--certificate", "iiss",
              "--samples", "64"], "--input-box", 1),
            (["check-lyapunov", "--system", "cart-pendulum", "--certificate", "iubibss",
              "--samples", "64"], "--box", 2),
            (["check-lyapunov", "--system", "cart-pendulum", "--certificate", "iubibss",
              "--samples", "64"], "--input-box", 2),
            (["bound", "--system", "ball-hoop", "--n-ic", "4", "--t-end", "1"], "--box", 2),
        ],
        ids=["check-exact", "fiberwise", "iiss-input", "iubibss", "iubibss-input", "bound"],
    )
    def test_exit_1(self, argv, flag, dim, bad, tmp_path, capsys):
        box = ";".join([bad] + ["0,1"] * (dim - 1))
        rc = main([*argv, f"{flag}={box}", "--out", str(tmp_path / "o")])
        assert_clean_usage_error(rc, capsys, "must be finite")
