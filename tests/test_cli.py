import json

import numpy as np
import pytest

from approxred import cli
from approxred.cli import main, parse_metadata
from approxred.systems import lookup
from approxred.user_systems import load_system_config


def assert_clean_usage_error(rc, capsys, *needles):
    """Exit 1 with a one-line ``approxred: error:`` message, never a traceback."""
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("approxred: error:") and "Traceback" not in err
    assert err.count("\n") == 1
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

    def test_values_without_a_number(self, capsys):
        rc = main(["sweep", "--system", "ball-hoop", "--param", "R", "--values", ","])
        assert_clean_usage_error(rc, capsys, "--values must list at least one number")

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["simulate", "--system", "ball-hoop", "--x0", "0.5,,0.3"], "--x0"),
            (["sweep", "--system", "ball-hoop", "--param", "R", "--values", "5,,10,"],
             "--values"),
            (["check-exact", "--system", "ball-hoop", "--box=-1,,1;-1,1"], "--box"),
        ],
        ids=["x0", "values", "box"],
    )
    def test_empty_entry_in_a_number_list(self, argv, flag, tmp_path, capsys):
        rc = main([*argv, "--out", str(tmp_path / "o")])
        assert_clean_usage_error(rc, capsys, f"{flag} expects comma-separated numbers")
        assert not (tmp_path / "o").exists()


# a user system whose full run fails at its first step for p = 3 (a growth
# rate p**600 near 1e286; below 1e-180 for p <= 0.5), whose reduced run
# fails so for q = 3 (z stays 1, the reduced run sees z = 0), and whose
# expression divides by zero at p = 5
SWEEPABLE = {
    "name": "sweepable",
    "state": ["y", "z"],
    "m": 1,
    "params": {"p": 0.5, "q": 0.5},
    "rhs": ["y*z*p**300*p**300 + y*(1 - z)*q**300*q**300 - y + 0.5*z*y*y + 0*(1/(p - 5))",
            "0*z"],
    "x0": [1.0, 1.0],
}

# (system arguments, swept parameter, three good values, a bad value): the
# bad value fails to resolve, or a run or an evaluation fails
SWEEP_FAILURES = {
    "hoop-resolution": (["--system", "ball-hoop"], "mu", ["0.5", "1", "2"], "-1"),
    "hoop-rk4-divergence": (["--system", "ball-hoop", "--method", "rk4", "--dt", "0.05"],
                            "mu", ["0.5", "1", "2"], "1000"),
    "cart-resolution": (["--system", "cart-pendulum"], "d", ["0.01", "0.1", "1"], "-1"),
    "user-full": (["--config", "SWEEPABLE"], "p", ["0.1", "0.2", "0.3"], "3"),
    "user-reduced": (["--config", "SWEEPABLE"], "q", ["0.1", "0.2", "0.3"], "3"),
    "user-evaluation": (["--config", "SWEEPABLE"], "p", ["0.1", "0.2", "0.3"], "5"),
}


def sweep_and_loop(argv, param, values, tmp_path, capsys):
    """sweep's (exit code, stderr, rows), and the same from one compare per
    value in turn, as a loop over the values gives them."""
    argv = [str(tmp_path / "sweepable.json") if a == "SWEEPABLE" else a for a in argv]
    (tmp_path / "sweepable.json").write_text(json.dumps(SWEEPABLE))
    common = [*argv, "--t-end", "3", "--n-grid", "301", "--format", "json"]
    out = tmp_path / "sweep.json"
    rc = main(["sweep", *common, "--param", param, "--values=" + ",".join(values),
               "--out", str(out)])
    err = capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"] if rc == 0 else None
    assert rc == 0 or not out.exists()
    swept = (rc, err, rows)
    rows = []
    for value in values:
        one = tmp_path / "compare.json"
        rc = main(["compare", *common, "--set", f"{param}={value}", "--out", str(one)])
        err = capsys.readouterr().err
        if rc != 0:
            return swept, (rc, err, None)
        summary = json.loads(one.read_text())["summary"]
        rows.append({"param_value": float(value), **summary})
    return swept, (0, "", rows)


class TestSweepMatchesPerValueCompare:
    """sweep writes the rows, or the error and exit code, of one compare per
    value in turn: the first value whose resolution, full run, reduced run
    or interpolation fails decides."""

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("case", sorted(SWEEP_FAILURES))
    def test_a_failing_value_at_each_position(self, case, position, tmp_path, capsys):
        argv, param, values, bad = SWEEP_FAILURES[case]
        values = values[:position] + [bad] + values[position:]
        swept, loop = sweep_and_loop(argv, param, values, tmp_path, capsys)
        assert swept == loop
        assert swept[0] == (1 if case.endswith("resolution") else 2)

    @pytest.mark.parametrize("method", [[], ["--method", "rk4", "--dt", "0.01"]], ids=["rk45", "rk4"])
    @pytest.mark.parametrize("case", ["hoop-resolution", "cart-resolution", "user-full"])
    def test_rows_bit_identical(self, case, method, tmp_path, capsys):
        argv, param, values, _ = SWEEP_FAILURES[case]
        swept, loop = sweep_and_loop([*argv, *method], param, values, tmp_path, capsys)
        assert swept == loop and swept[0] == 0

    @pytest.mark.parametrize(
        "values,code",
        [(["0.5", "-1", "1000"], 1), (["0.5", "1000", "-1"], 2)],
    )
    def test_the_earlier_of_two_failures_decides(self, values, code, tmp_path, capsys):
        argv, param, _, _ = SWEEP_FAILURES["hoop-rk4-divergence"]
        swept, loop = sweep_and_loop(argv, param, values, tmp_path, capsys)
        assert swept == loop and swept[0] == code

    @pytest.mark.parametrize("values", [["0.1", "5", "3"], ["0.1", "3", "5"]])
    def test_a_raising_evaluation_keeps_its_turn(self, values, tmp_path, capsys):
        swept, loop = sweep_and_loop(["--config", "SWEEPABLE"], "p", values, tmp_path, capsys)
        assert swept == loop and swept[0] == 2

    def test_a_config_is_read_once(self, tmp_path, capsys, monkeypatch):
        reads = []

        def counted(path):
            reads.append(path)
            return load_system_config(path)

        monkeypatch.setattr(cli, "load_system_config", counted)
        values = ["0.1", "0.2", "0.3", "0.4"]
        swept, loop = sweep_and_loop(["--config", "SWEEPABLE"], "p", values, tmp_path, capsys)
        assert swept == loop and swept[0] == 0
        assert len(reads) == 1 + len(values)  # the sweep's read, then each compare's


class TestCheckExact:
    def test_hoop_negative_verdict_with_witness(self, tmp_path):
        out = tmp_path / "ce.json"
        rc = main(["check-exact", "--system", "ball-hoop", "--out", str(out)])
        assert rc == 3
        doc = json.loads(out.read_text())
        report = doc["report"]
        assert report["verdict"] == "NOT_REDUCIBLE"
        assert (report["witness"]["component"], report["witness"]["fiber_index"]) == (0, 0)
        # the closed-form partial of the omega row along theta; the witness is
        # a central difference, whose round-off eps*|f|/h is about 1e-9
        p, theta = lookup("ball-hoop", {}).params, report["witness"]["point"][1]
        exact = abs(p["xi_hoop"] ** 2 * np.cos(2.0 * theta) - (p["g"] / p["R"]) * np.cos(theta))
        assert exact > doc["config"]["tol"]
        assert report["witness"]["magnitude"] == pytest.approx(exact, rel=1e-8)

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

    @pytest.mark.parametrize("system,certificate",
                             [("ball-hoop", "fiberwise"), ("cart-pendulum", "iubibss")])
    def test_negation_flips_the_value_and_the_gradient(self, system, certificate):
        spec = lookup(system, {}).certificates[certificate]()
        V, neg = spec.certificate.V, cli._negate_certificate(spec.certificate).V
        box = spec.state_box  # a pair's second state runs the other way
        args = [np.linspace(box.lower, box.upper, 9), np.linspace(box.upper, box.lower, 9)]
        args = args[:1] if spec.control is None else args
        assert np.array_equal(neg(*args), -V(*args))

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

    def test_note_names_a_condition_no_sample_tested(self, tmp_path):
        # g = 1e200 makes the decay condition's domain miss every sample
        out = tmp_path / "c.json"
        rc = main(["check-lyapunov", "--system", "ball-hoop", "--certificate", "iiss",
                   "--set", "g=1e200", "--samples", "4096", "--out", str(out)])
        report = json.loads(out.read_text())["report"]
        assert rc == 0 and report["verdict"] == "NO_COUNTEREXAMPLE"
        assert report["condition_counts"]["decay_checked"] == 0
        assert report["note"].endswith("; no sample was tested for decay")

    def test_fiberwise_takes_no_input_box(self, tmp_path, capsys):
        rc = main(["check-lyapunov", "--system", "ball-hoop", "--certificate", "fiberwise",
                   "--input-box=-1,1", "--samples", "64", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and not (tmp_path / "o").exists()
        assert err == "approxred: error: certificate 'fiberwise' takes no --input-box\n"


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


class TestFunctionNamesInConfigs:
    """A state or parameter named sin or cos exits 1 naming the clash, never
    with a traceback from calling a number."""

    @pytest.mark.parametrize(
        "state,params",
        [(["y", "z"], {"sin": 2.0}), (["y", "cos"], {})],
        ids=["parameter-sin", "state-cos"],
    )
    def test_exit_1(self, state, params, tmp_path, capsys):
        doc = {"name": "shadow", "state": state, "m": 1, "params": params,
               "rhs": [f"-y + sin({state[1]})", f"-{state[1]} + cos(y)"]}
        path = tmp_path / "shadow.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(path), "--t-end", "1"])
        clash = sorted({*state, *params} & {"sin", "cos"})
        assert_clean_usage_error(rc, capsys, f"variable and a function: {clash}")


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


# every command and flag that reads a box, with the box's dimension
BOX_FLAGS = pytest.mark.parametrize(
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
          "--samples", "64"], "--input-box", 3),
        (["bound", "--system", "ball-hoop", "--n-ic", "4", "--t-end", "1"], "--box", 2),
    ],
    ids=["check-exact", "fiberwise", "iiss-input", "iubibss", "iubibss-input", "bound"],
)


@pytest.mark.filterwarnings("error")
class TestNonFiniteBoxes:
    """A box with an infinite or NaN bound, or an overflowing width, exits 1."""

    @pytest.mark.parametrize("bad", ["-inf,1", "0,inf", "nan,1", "-1e308,1e308"])
    @BOX_FLAGS
    def test_exit_1(self, argv, flag, dim, bad, tmp_path, capsys):
        box = ";".join([bad] + ["0,1"] * (dim - 1))
        rc = main([*argv, f"{flag}={box}", "--out", str(tmp_path / "o")])
        assert_clean_usage_error(rc, capsys, f"error: {flag}: box", "must be finite")


@BOX_FLAGS
def test_empty_box_exits_1(argv, flag, dim, tmp_path, capsys):
    # an empty flag is a malformed box, not a request for the default box
    rc = main([*argv, f"{flag}=", "--out", str(tmp_path / "o")])
    assert_clean_usage_error(rc, capsys, f"error: {flag} expects", "got segment ''")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--system", "cart-pendulum", "--certificate", "iubibss", "--input-box=0,1"],
         "--input-box has dimension 1 but certificate 'iubibss' expects dimension 3"),
        (["--system", "cart-pendulum", "--certificate", "iubibss",
          "--input-box=0,1;0,1;0,1;0,1"],
         "--input-box has dimension 4 but certificate 'iubibss' expects dimension 3"),
        (["--system", "ball-hoop", "--certificate", "iiss", "--input-box=0,1;0,1"],
         "--input-box has dimension 2 but certificate 'iiss' expects dimension 1"),
        (["--system", "ball-hoop", "--certificate", "fiberwise", "--box=0,1"],
         "--box has dimension 1 but certificate 'fiberwise' expects dimension 2"),
    ],
    ids=["iubibss-input-1", "iubibss-input-4", "iiss-input-2", "fiberwise-1"],
)
def test_certificate_box_of_the_wrong_dimension_exits_1(argv, message, tmp_path, capsys,
                                                        monkeypatch):
    # checked before anything is evaluated on the boxes
    from approxred import systems

    def unreachable(*args, **kwargs):
        raise AssertionError("evaluated before the box check")

    monkeypatch.setattr(systems, "estimate_lipschitz", unreachable)
    monkeypatch.setattr(systems, "sobol_points", unreachable)
    rc = main(["check-lyapunov", *argv, "--samples", "64", "--out", str(tmp_path / "o")])
    assert_clean_usage_error(rc, capsys, f"approxred: error: {message}\n")
    assert not (tmp_path / "o").exists()


def extreme_parameter_runs():
    """Each bundled parameter at 1e-320, 1e200 and 1e308, under check-lyapunov
    for each certificate and under simulate, then two more extremes; the
    cases whose exit code and message are fixed carry them."""
    from approxred.systems import REGISTRY

    fixed = {
        **{("ball-hoop", "xi_hoop", "1e200", run): (1, "requires R*xi_hoop^2 < g")
           for run in ("fiberwise", "iiss", "simulate")},
        ("ball-hoop", "R", "1e-320", "iiss"): (1, "sublevel box of V <= "),
        ("cart-pendulum", "d", "1e-320", "iubibss"): (1, "needs finite coefficients"),
        # the input box is wider than 1.3e154, yet its diameter is finite
        **{("cart-pendulum", key, "1e200", "iubibss"): (0, "")
           for key in ("b", "d", "g", "k")},
        # steps near 1e-199 would run for hours; they fall below the step floor
        **{("cart-pendulum", "d", value, "simulate"): (2, "adaptive step size underflow")
           for value in ("1e200", "1e308")},
    }
    certificates = {"ball-hoop": ("fiberwise", "iiss"), "cart-pendulum": ("iubibss",)}
    for system, (_factory, defaults) in REGISTRY.items():
        for key in defaults:
            for value in ("1e-320", "1e200", "1e308"):
                head = ["--system", system, "--set", f"{key}={value}"]
                runs = {cert: ["check-lyapunov", *head, "--certificate", cert,
                               "--samples", "64"] for cert in certificates[system]}
                runs["simulate"] = ["simulate", *head, "--t-end", "1"]
                for run, argv in runs.items():
                    yield pytest.param(argv, fixed.get((system, key, value, run)),
                                       id=f"{system}-{run}-{key}={value}")
    # a finite gain coefficient near 1e307 overflows on the gain-threshold grid
    yield pytest.param(["check-lyapunov", "--system", "cart-pendulum", "--set", "d=1e-306",
                        "--certificate", "iubibss", "--samples", "64"], (0, ""),
                       id="cart-pendulum-iubibss-d=1e-306")
    # V overflows at the corners of a huge box, so its upper comparison function
    yield pytest.param(["check-lyapunov", "--system", "ball-hoop", "--certificate", "fiberwise",
                        "--box=-1e200,1e200;-1,1", "--samples", "64"],
                       (1, "needs finite coefficients"), id="ball-hoop-fiberwise-huge-box")


@pytest.mark.parametrize("argv,fixed", extreme_parameter_runs())
def test_extreme_parameters_exit_cleanly(argv, fixed, tmp_path, capsys):
    # no traceback, no numpy warning, at most the one line that names the failure
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert rc in (0, 1, 2, 3) and err.count("\n") <= 1, err
    if fixed is not None:
        code, needle = fixed
        assert rc == code and needle in err, err


# sha256 of the --out JSON of `check-lyapunov --samples 4096` at the default
# seed, recorded while the certificates were hand-written closures; the two
# cart digests were recorded again when the note began to name the decay
# condition that no cart sample tests, the only bytes of those reports to move
CERTIFICATE_OUTPUT_SHA256 = {
    ("ball-hoop", "fiberwise", False):
        "76bf75c8b0e5a7ba96e9f85457f167beaa3e822a6dbf20eb30425aee791da983",
    ("ball-hoop", "iiss", False):
        "9ea0d7af3c20cf2768266b69d6d43146d89c1a23b0ffda28cae10393de5f0d92",
    ("cart-pendulum", "iubibss", False):
        "6f4654ad7a5856d69789a03b8c82c5f2f1d2b3857663d121136b6eae33c4a012",
    ("ball-hoop", "iiss", True):
        "09877004fa02ca25f29ed68f6d6de3ac553934fe8a1a3ca2c0b4b974ca3fbf0b",
    ("cart-pendulum", "iubibss", True):
        "048d37198053585dada4389c45760170645c57bcd043c204bf560c02b0bb0715",
}


@pytest.mark.parametrize("system,certificate,negate", sorted(CERTIFICATE_OUTPUT_SHA256))
def test_certificate_outputs_keep_their_bytes(tmp_path, system, certificate, negate):
    import hashlib

    out = tmp_path / "report.json"
    argv = ["check-lyapunov", "--system", system, "--certificate", certificate,
            "--samples", "4096", "--out", str(out)]
    rc = main(argv + (["--negate-v"] if negate else []))
    assert rc == (3 if negate else 0)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CERTIFICATE_OUTPUT_SHA256[system, certificate, negate]


# sha256 of the --out file of one short run per document kind at the default
# seed, recorded while the run configuration was a dataclass: they pin the
# config's keys and their order, each document's keys and every float's digits
OUTPUT_SHA256 = {
    "simulate --system ball-hoop --t-end 2":
        "1476d0ac4a3cd3ce836a006713a0529da3c3acf64fb4aa8c4b19452b497e0dd0",
    "simulate --system cart-pendulum --t-end 1 --format json":
        "9817cfef9a2b5b72198449e39c4e218ca58630ecfa2ab9d3f295bdf84ed8df51",
    "compare --system ball-hoop --set R=5 --t-end 2 --n-grid 51 --format json":
        "c508265a7b7dd15e96353a61da7435a934aaf049e0fb159864b9aee347cbc5f9",
    "sweep --system ball-hoop --param R --values 5,10 --t-end 2 --n-grid 51 --format json":
        "5290a1281d253699ce7ce907f8294aeee6931373b384b9465bf5f36de7f2105d",
    "check-exact --system ball-hoop --samples 64":
        "5e2b023702b721477d4c6baef5bf865668a25e7dad145a2258223d9da911f96e",
    "bound --system ball-hoop --n-ic 4 --t-end 2 --n-grid 51":
        "c978f73e6a7d67310b199135179b72d407c9735afc61a848aca7470da0c744ac",
    "bound --system cart-pendulum --mode cross --n-ic 4 --t-end 1 --n-grid 51":
        "b07ce1cd371a17a1dd423d633a4d87331eedb003185b14f852b04fb24bb0ce2e",
    "bound --config {demo} --n-ic 4 --t-end 1 --n-grid 51":
        "4d907a19478fc168133a75517390589b71cec65d0c8d7b9f9e66ad081af14d46",
}


@pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
def test_outputs_keep_their_bytes(tmp_path, command):
    import hashlib

    out = tmp_path / "out"
    argv = command.replace("{demo}", write_demo_config(tmp_path)).split()
    rc = main([*argv, "--out", str(out)])
    assert rc == (3 if command.startswith("check-exact") else 0)  # the hoop is not exact
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[command]


@pytest.mark.parametrize("argv", [
    # sqrt of a negative y is NaN with a RuntimeWarning
    ["check-exact", "--config", "{tmp}/root.json", "--box=-2,-1;0,1"],
    # squares of velocity gaps near 1e200 overflow with a RuntimeWarning
    ["check-lyapunov", "--system", "ball-hoop", "--certificate", "iiss",
     "--box=-1e200,1e200", "--samples", "64"],
])
def test_a_sampled_check_prints_no_numpy_warning(tmp_path, argv):
    (tmp_path / "root.json").write_text(json.dumps(
        {"name": "root", "state": ["y", "z"], "m": 1, "rhs": ["y**0.5 + 0*z", "-z"]}))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    proc = run_in_subprocess([*argv, "--out", str(tmp_path / "o.json")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("approxred: numerical failure: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


# counts the expression trees compiled while a command runs in-process
COMPILES_SCRIPT = (
    "import builtins, json, sys\n"
    "trees = []\n"
    "real = builtins.compile\n"
    "def spy(source, filename, *args, **kwargs):\n"
    "    if filename == '<rhs>':\n"
    "        trees.append(source)\n"
    "    return real(source, filename, *args, **kwargs)\n"
    "builtins.compile = spy\n"
    "from approxred import cli\n"
    "try:\n"
    "    rc = cli.main(json.loads(sys.argv[1]))\n"
    "except SystemExit as stop:  # --version exits from argparse\n"
    "    rc = stop.code\n"
    "print(rc, len(trees))\n"
)


def test_bundled_systems_compile_on_first_lookup_only(tmp_path):
    config = write_demo_config(tmp_path)
    out = ["--out", str(tmp_path / "o.csv")]
    cases = [
        (["--version"], 0),
        (["simulate", "--config", config, "--t-end", "1", *out], 1),  # the config's rhs
        (["simulate", "--system", "ball-hoop", "--t-end", "1", *out], 1),  # the field
        # the field, V (for the sublevel box), the coupling, U and the control form
        (["check-lyapunov", "--system", "ball-hoop", "--certificate", "iiss",
          "--samples", "64", *out], 5),
    ]
    for argv, trees in cases:
        proc = run_in_subprocess([json.dumps(argv)], script=COMPILES_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == f"0 {trees}", argv
