"""The sampled checks stream their samples through row blocks.

Every check draws its Sobol points from ``sampling.sobol_blocks``, evaluates
at most ``sampling.SAMPLE_BLOCK_ROWS`` samples at a time and must report
exactly what one whole-array evaluation reports: same verdict, witness,
magnitude, index and counts, and the same output bytes.
"""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from approxred import cli, reduction, sampling, stability, systems
from approxred.core import (
    Box,
    ComparisonFunction,
    ControlSystemDef,
    EvaluationError,
    InputError,
    VectorFieldDef,
)
from approxred.numdiff import jacobian_batch
from approxred.reduction import check_exact_reducible
from approxred.sampling import sobol_blocks, sobol_points
from approxred.stability import (
    NO_COUNTEREXAMPLE,
    IncrementalCertificate,
    _falsify,
    check_fiberwise,
    check_iiss,
    check_iubibss,
)
from approxred.systems import CertificateSpec, SystemEntry, _compiled, lookup
from approxred.user_systems import system_from_dict

SMALL_BLOCKS = (7, 1)
UNIT_SQUARE = Box.from_pairs([(-1.0, 1.0)] * 2)
HALF_SQ = ComparisonFunction(0.5, 2.0)


def certificate_map(value, grads):
    """The map of a certificate V: its value column, then its gradient columns."""
    return lambda *xs: np.concatenate([value(*xs)[..., None], grads(*xs)], axis=-1)


def fiber_square():
    """V = z^2 / 2 on a (y, z) state, with its gradient (0, z)."""
    return certificate_map(lambda s: 0.5 * s[..., 1] ** 2,
                           lambda s: np.stack([np.zeros_like(s[..., 1]), s[..., 1]], axis=-1))


def field(dy, dz) -> VectorFieldDef:
    def rhs(s):
        s = np.asarray(s, dtype=float)
        y, z = s[..., 0], s[..., 1]
        return np.stack([dy(y, z), dz(y, z)], axis=-1)

    return VectorFieldDef(n=2, rhs=rhs, name="test-field")


class TestBlockSizeInvariance:
    """Blocks of 7 rows and of 1 row report what a single block reports."""

    @pytest.mark.parametrize("name", ["ball-hoop", "cart-pendulum"])
    def test_check_exact_reports(self, name, monkeypatch):
        entry = lookup(name, {})
        box = cli._default_box(entry)
        whole = [
            cli._json_document(check_exact_reducible(entry.field, entry.m, box, n, seed=s))
            for n, s in ((300, 42), (129, 7), (1, 3))
        ]
        for rows in SMALL_BLOCKS:
            monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", rows)
            blocked = [
                cli._json_document(check_exact_reducible(entry.field, entry.m, box, n, seed=s))
                for n, s in ((300, 42), (129, 7), (1, 3))
            ]
            assert blocked == whole

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-exact", "--system", "ball-hoop", "--samples", "300"],
            ["check-exact", "--system", "cart-pendulum", "--samples", "300"],
            *(
                ["check-lyapunov", "--system", system, "--certificate", cert,
                 "--samples", "300", *negate]
                for system, cert in (
                    ("ball-hoop", "fiberwise"),
                    ("ball-hoop", "iiss"),
                    ("cart-pendulum", "iubibss"),
                )
                for negate in ([], ["--negate-v"])
            ),
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a != "--samples"),
    )
    def test_cli_writes_the_same_bytes(self, argv, tmp_path, monkeypatch):
        def run(rows):
            if rows is not None:
                monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", rows)
            out = tmp_path / f"{rows}.json"
            rc = cli.main([*argv, "--out", str(out)])
            return rc, out.read_bytes()

        whole = run(None)
        assert whole[0] in (0, 3)
        for rows in SMALL_BLOCKS:
            assert run(rows) == whole

    def test_negated_certificates_keep_their_counterexample(self, tmp_path, monkeypatch):
        # the blocked walk must still find the violation a negated V guarantees
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", 7)
        out = tmp_path / "neg.json"
        rc = cli.main(["check-lyapunov", "--system", "ball-hoop", "--certificate",
                       "iiss", "--samples", "100", "--negate-v", "--out", str(out)])
        report = json.loads(out.read_text())["report"]
        assert rc == 3 and report["verdict"] == "COUNTEREXAMPLE"

    @pytest.mark.parametrize("c", [None, 0.5, 3.0, 20.0, 1e-6, 0.01, 1e3, 1e6])
    def test_sublevel_box_matches_the_whole_grid_scan(self, c):
        # the exact box holds every grid point of the whole 1001 x 1001 scan
        # that lies in the set, and each bound is within one cell of the scan's
        for R, xi in ((5.0, 0.1), (10.0, 0.3), (20.0, 0.6), (40.0, 0.3)):
            entry = lookup("ball-hoop", {"R": R, "xi_hoop": xi})
            p = entry.params
            lyap = _compiled("ball-hoop", "V")(p)  # column 0 is V's value
            level = float(lyap(entry.default_ic)[0]) if c is None else c
            w_max = np.sqrt(2.0 * level / (p["m"] * p["R"] ** 2))
            W, TH = np.meshgrid(
                np.linspace(-w_max, w_max, 1001), np.linspace(-np.pi, np.pi, 1001),
                indexing="ij",
            )
            mask = lyap(np.stack([W, TH], axis=-1))[..., 0] <= level
            box = entry.default_box(c)
            scan = Box.from_pairs([(W[mask].min(), W[mask].max()),
                                   (TH[mask].min(), TH[mask].max())])
            assert np.all(box.lower <= scan.lower) and np.all(scan.upper <= box.upper), (R, xi)
            cell = np.array([2.0 * w_max, 2.0 * np.pi]) / 1000 * (1 + 1e-9)  # and rounding
            assert np.all(scan.lower - box.lower <= cell), (R, xi)
            assert np.all(box.upper - scan.upper <= cell), (R, xi)


def run_check(name, kind, n, seed, negate=False):
    """The JSON form of one check's report on a bundled system."""
    entry = lookup(name, {})
    if kind == "exact":
        report = check_exact_reducible(entry.field, entry.m, cli._default_box(entry),
                                       n, seed=seed)
        return cli._json_document(report)
    spec = entry.certificates[kind](state_box=None, input_box=None, seed=seed)
    cert = cli._negate_certificate(spec.certificate) if negate else spec.certificate
    if kind == "fiberwise":
        report = check_fiberwise(entry.field, entry.m, cert, spec.state_box, n, seed)
    else:
        check = check_iiss if kind == "iiss" else check_iubibss
        report = check(spec.control, cert, spec.state_box, spec.input_box, n, seed)
    return cli._json_document(report)


def check_outcome(*args):
    """``run_check``'s report, or the message of the ``InputError`` it raises."""
    try:
        return run_check(*args)
    except InputError as err:
        return f"InputError: {err}"


CHECKS = [
    ("ball-hoop", "exact", False),
    ("cart-pendulum", "exact", False),
    *(
        (name, kind, negate)
        for name, kind in (("ball-hoop", "iiss"), ("ball-hoop", "fiberwise"),
                           ("cart-pendulum", "iubibss"))
        for negate in (False, True)
    ),
]


class TestWholeArrayOracle:
    """Streamed reports equal one evaluation of scipy's whole Sobol sample."""

    @pytest.fixture
    def whole_array(self, monkeypatch):
        qmc = pytest.importorskip("scipy.stats.qmc")

        def one_block(box, n, seed=sampling.DEFAULT_SEED):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # n not a power of two
                pts = qmc.Sobol(d=box.dim, scramble=True, seed=seed).random(n)
            pts *= box.widths
            pts += box.lower
            yield 0, pts

        def use():
            monkeypatch.setattr(stability, "sobol_blocks", one_block)  # the one consumer

        return use

    @pytest.mark.parametrize("name,kind,negate", CHECKS,
                             ids=lambda v: v if isinstance(v, str) else f"negate={v}")
    def test_default_blocks(self, name, kind, negate, whole_array):
        streamed = run_check(name, kind, 2**16 + 8192 + 5, 13, negate)
        whole_array()
        assert run_check(name, kind, 2**16 + 8192 + 5, 13, negate) == streamed

    @pytest.mark.parametrize("name,kind,negate", CHECKS,
                             ids=lambda v: v if isinstance(v, str) else f"negate={v}")
    def test_tiny_blocks(self, name, kind, negate, whole_array, monkeypatch):
        # 17 samples leave every cart iubibss condition untested: both raise alike
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", 7)
        streamed = [check_outcome(name, kind, n, s, negate) for n, s in ((300, 42), (17, 5))]
        whole_array()
        assert [check_outcome(name, kind, n, s, negate)
                for n, s in ((300, 42), (17, 5))] == streamed


class TestTies:
    def test_tie_across_blocks_keeps_the_lowest_index(self, monkeypatch):
        # Vdot = 1 wherever z > 0: every such sample ties for the worst decay
        f = field(lambda y, z: -y, lambda y, z: (z > 0).astype(float))

        V = certificate_map(
            lambda s: np.abs(s[..., 1]),
            lambda s: np.stack([np.zeros_like(s[..., 1]), np.sign(s[..., 1])], axis=-1),
        )
        cert = IncrementalCertificate(V=V, alpha_lower=ComparisonFunction(1e-12),
                                      alpha_upper=ComparisonFunction(1e12))
        first = int(np.argmax(sobol_points(UNIT_SQUARE, 64)[:, 1] > 0))
        for rows in (None, 7, 1):
            if rows is not None:
                monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", rows)
            ce = check_fiberwise(f, 1, cert, UNIT_SQUARE, 64).counterexample
            assert (ce.condition, ce.sample_index) == ("decay", first)

    def test_check_exact_tie_across_blocks_keeps_the_lowest_index(self, monkeypatch):
        # partials of 1 wherever y > 0.5 and 0 elsewhere: those samples tie
        def step_partials(fn, X, out_dim, cols):
            return np.broadcast_to((X[:, :1, None] > 0.5) * 1.0, (len(X), out_dim, len(cols)))

        monkeypatch.setattr(reduction, "jacobian_batch", step_partials)
        X = sobol_points(UNIT_SQUARE, 64)
        first = int(np.argmax(X[:, 0] > 0.5))
        assert first > 0
        f = field(lambda y, z: -y, lambda y, z: -z)
        for rows in (None, 7, 1):
            if rows is not None:
                monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", rows)
            witness = check_exact_reducible(f, 1, UNIT_SQUARE, 64).witness
            assert witness.point.tolist() == X[first].tolist()

    def test_check_exact_tie_between_entries_keeps_the_lowest(self, monkeypatch):
        # m = 1, k = 2 and f_y = y (z1 + z2): at z = 0 both partials step by the
        # same h, so they are equal bit for bit and the entry (0, 0) must win
        def rhs(s):
            s = np.asarray(s, dtype=float)
            y, z1, z2 = s[..., 0], s[..., 1], s[..., 2]
            return np.stack([y * (z1 + z2), -z1, -z2], axis=-1)

        f = VectorFieldDef(n=3, rhs=rhs)
        box = Box.from_pairs([(-1.0, 1.0), (0.0, 0.0), (0.0, 0.0)])
        X = sobol_points(box, 64)
        J = np.abs(jacobian_batch(lambda s: rhs(s)[..., :1], X, 1, cols=[1, 2]))[:, 0]
        first = int(np.argmax(J[:, 0]))
        assert J[first, 0] == J[first, 1] > 0
        for rows in (None, 7, 1):
            if rows is not None:
                monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", rows)
            report = check_exact_reducible(f, 1, box, 64)
            witness = report.witness
            assert report.max_residual == witness.magnitude == J.max()
            assert witness.point.tolist() == X[first].tolist()
            assert (witness.component, witness.fiber_index) == (0, 0)

    def test_conditions_tie_in_table_order(self, monkeypatch):
        # equal violations: the earlier condition in the table wins, even when
        # the later condition met its worst sample in an earlier block
        box = Box.from_pairs([(0.0, 1.0)])
        x = sobol_points(box, 64)[:, 0]
        late, early = int(np.argmax(x > 0.9)), int(np.argmax(x > 0.1))
        assert early < late

        def conditions(X):
            x = X[:, 0]
            one = np.ones_like(x)
            return [("late", x > 0.9, one, x, x), ("early", x > 0.1, one, x, x)]

        def falsify():
            return _falsify(box, {"x": slice(None)}, 64, 42, conditions, {"box": box},
                            lambda checked: dict(checked))

        for rows in (None, 7, 1):
            if rows is not None:
                monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", rows)
            report = falsify()
            ce = report.counterexample
            assert (ce.condition, ce.sample_index) == ("late", late)
            assert report.condition_counts == {
                "late": int((x > 0.9).sum()), "early": int((x > 0.1).sum())
            }


class TestNonFiniteInALaterBlock:
    """A non-finite value is reported even when the first block is clean."""

    def first_bad(self, X, bad) -> list:
        i = int(np.argmax(bad))
        assert i >= 7, "the fixture needs its first bad sample past the first block"
        return X[i].tolist()

    def test_check_exact(self, monkeypatch):
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", 7)
        f = field(lambda y, z: np.where(y > 0.95, np.nan, -y) + z, lambda y, z: -z)
        X = sobol_points(UNIT_SQUARE, 128)
        expected = self.first_bad(X, X[:, 0] > 0.95)
        with pytest.raises(EvaluationError) as err:
            check_exact_reducible(f, 1, UNIT_SQUARE, 128)
        assert str(expected) in str(err.value)

    def test_iiss_v(self, monkeypatch):
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", 7)

        fn = certificate_map(
            lambda x1, x2: np.where(x1[..., 0] > 0.8, np.nan, (x1[..., 0] - x2[..., 0]) ** 2),
            lambda x1, x2: np.concatenate([2.0 * (x1 - x2), 2.0 * (x2 - x1)], axis=-1),
        )

        line = Box.from_pairs([(-1.0, 1.0)])
        contract = ControlSystemDef(n=1, m_in=1, rhs=lambda x, u: -np.asarray(x))
        cert = IncrementalCertificate(V=fn, alpha_lower=HALF_SQ, alpha_upper=HALF_SQ,
                                      mu=ComparisonFunction(2.0), alpha_decay=HALF_SQ)
        P = sobol_points(line.concat(line).concat(line).concat(line), 256)
        expected = self.first_bad(P, P[:, 0] > 0.8)[0]
        with pytest.raises(EvaluationError) as err:
            check_iiss(contract, cert, line, line, 256)
        assert f"x1=[{expected!r}]" in str(err.value)

    def test_fiberwise_derivative_nan_on_a_quarter_of_the_box(self):
        # used to return NO_COUNTEREXAMPLE: Vdot was never checked for finiteness
        f = field(lambda y, z: -y, lambda y, z: np.where(z > 0.5, np.nan, -z))
        cert = IncrementalCertificate(V=fiber_square(), alpha_lower=HALF_SQ,
                                      alpha_upper=HALF_SQ)
        X = sobol_points(UNIT_SQUARE, 1024)
        expected = X[np.argmax(X[:, 1] > 0.5)].tolist()
        with pytest.raises(EvaluationError, match="along f") as err:
            check_fiberwise(f, 1, cert, UNIT_SQUARE, 1024)
        assert str(expected) in str(err.value)

    def test_fiberwise_derivative(self, monkeypatch):
        monkeypatch.setattr(sampling, "SAMPLE_BLOCK_ROWS", 7)
        f = field(lambda y, z: -y, lambda y, z: np.where(z > 0.9, np.nan, -z))
        cert = IncrementalCertificate(V=fiber_square(), alpha_lower=HALF_SQ,
                                      alpha_upper=HALF_SQ)
        X = sobol_points(UNIT_SQUARE, 1024)
        expected = self.first_bad(X, X[:, 1] > 0.9)
        with pytest.raises(EvaluationError, match="along f") as err:
            check_fiberwise(f, 1, cert, UNIT_SQUARE, 1024)
        assert str(expected) in str(err.value)

    def test_fiberwise_derivative_ignores_inactive_samples(self):
        # only samples with fiber norm >= xi, the threshold, are checked
        f = field(lambda y, z: -y, lambda y, z: np.where(np.abs(z) < 0.1, np.nan, -z))
        cert = IncrementalCertificate(V=fiber_square(), alpha_lower=HALF_SQ,
                                      alpha_upper=ComparisonFunction(1.0, 2.0), xi=0.2)
        report = check_fiberwise(f, 1, cert, UNIT_SQUARE, 1024)
        assert report.verdict == NO_COUNTEREXAMPLE

    def test_fiberwise_derivative_exits_2(self, tmp_path, monkeypatch, capsys):
        f = field(lambda y, z: -y, lambda y, z: np.where(z > 0.5, np.nan, -z))
        cert = IncrementalCertificate(V=fiber_square(), alpha_lower=HALF_SQ,
                                      alpha_upper=HALF_SQ)

        def factory(params):
            spec = CertificateSpec("fiberwise", cert, UNIT_SQUARE)
            return SystemEntry(
                name="nan-fiber", params=params, field=f, m=1,
                default_ic=np.zeros(2),
                certificates={"fiberwise": lambda **kw: spec},
            )

        monkeypatch.setitem(systems.REGISTRY, "nan-fiber", (factory, {}))
        rc = cli.main(["check-lyapunov", "--system", "nan-fiber", "--certificate",
                       "fiberwise", "--samples", "1024", "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == 2 and "along f" in err and "Traceback" not in err


class TestFiberColumns:
    @pytest.mark.parametrize("name", ["ball-hoop", "cart-pendulum"])
    def test_fiber_columns_equal_the_full_jacobian_slice(self, name):
        entry = lookup(name, {})
        n, m = entry.field.n, entry.m
        X = sobol_points(cli._default_box(entry), 1000, seed=9)
        full = jacobian_batch(entry.field.rhs, X, n)
        fiber = jacobian_batch(entry.field.rhs, X, n, cols=range(m, n))
        assert fiber.shape == (1000, n, n - m)
        assert np.array_equal(fiber, full[:, :, m:])
        picked = jacobian_batch(entry.field.rhs, X, n, cols=[n - 1, 0])
        assert np.array_equal(picked, full[:, :, [n - 1, 0]])

    def test_check_exact_evaluates_the_fiber_columns_only(self):
        # two evaluations per fiber coordinate and sample, none for y
        entry = lookup("cart-pendulum", {})
        points = []

        def rhs(s):
            points.append(len(s))
            return entry.field.rhs(s)

        f = VectorFieldDef(n=4, rhs=rhs)
        check_exact_reducible(f, entry.m, cli._default_box(entry), 500)
        assert sum(points) == 2 * (entry.field.n - entry.m) * 500

    def test_peak_memory_stays_near_the_sample_array(self):
        # whole-array evaluation holds several (N, n) copies and the (N, n, k)
        # Jacobian at once; streaming holds the Sobol sample and one block
        entry = lookup("cart-pendulum", {})
        box = cli._default_box(entry)
        n = 2**18
        check_exact_reducible(entry.field, entry.m, box, 64)  # warm up
        tracemalloc.start()
        try:
            check_exact_reducible(entry.field, entry.m, box, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples_bytes = n * entry.field.n * 8
        assert peak < 2 * samples_bytes


def test_check_exact_keeps_the_retained_rows_only():
    # a 16-state chain with m = 2: the whole (4096, 16, 14) FD Jacobian of a
    # block alone takes 7 MiB, the retained (4096, 2, 14) rows 0.9 MiB
    n, m = 16, 2
    doc = {
        "name": "chain16",
        "state": [f"x{i}" for i in range(n)],
        "m": m,
        "rhs": [f"-x{i} + 0.1*sin(x{(i + 1) % n})" for i in range(n)],
    }
    entry, _ = system_from_dict(doc)
    box = Box(-np.ones(n), np.ones(n))
    check_exact_reducible(entry.field, entry.m, box, 64)  # warm up
    tracemalloc.start()
    try:
        report = check_exact_reducible(entry.field, entry.m, box, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20  # 18 MiB with the whole Jacobian
    # the oracle: the whole Jacobian, then its retained rows
    X = sobol_points(box, 8192)
    J = np.abs(jacobian_batch(entry.field.rhs, X, n, cols=range(m, n))[:, :m])
    sample, comp, fib = np.unravel_index(np.argmax(J), J.shape)
    assert report.max_residual == J.max()
    assert report.witness.point.tolist() == X[sample].tolist()
    assert (report.witness.component, report.witness.fiber_index) == (comp, fib)


class TestConstantMemory:
    """The streamed checks peak at the same memory for 2^16 and 2^20 samples,
    and sampling a 10-dimensional box stays within a few blocks."""

    @staticmethod
    def peak(check, n) -> int:
        check(64)  # warm up
        tracemalloc.start()
        try:
            check(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def assert_constant(self, check):
        # one whole (2^20, dim) float64 sample alone would add 32 MiB or more
        assert self.peak(check, 2**20) < self.peak(check, 2**16) + 4 * 2**20

    def test_check_exact(self):
        entry = lookup("cart-pendulum", {})
        box = cli._default_box(entry)
        self.assert_constant(lambda n: check_exact_reducible(entry.field, entry.m, box, n))

    def test_check_iubibss(self):
        spec = lookup("cart-pendulum", {}).certificates["iubibss"](
            state_box=None, input_box=None, seed=42
        )
        self.assert_constant(lambda n: check_iubibss(
            spec.control, spec.certificate, spec.state_box, spec.input_box, n
        ))

    # 2^18 points in 10 dimensions fill 20 MiB as one array; a table of 2^16
    # points and its converted points would take 10 MiB
    def test_sobol_stream_peak(self):
        box = Box(np.zeros(10), np.ones(10))

        def consume(n):
            for _block in sobol_blocks(box, n):
                pass

        assert self.peak(consume, 2**18) < 4 * 2**20

    def test_check_iubibss_peak(self):
        spec = lookup("cart-pendulum", {}).certificates["iubibss"](
            state_box=None, input_box=None, seed=42
        )
        # two states of 4 and two inputs of 1: a 10-dimensional sample
        assert self.peak(lambda n: check_iubibss(
            spec.control, spec.certificate, spec.state_box, spec.input_box, n
        ), 2**18) < 4 * 2**20


def test_sobol_points_scale_in_place_to_the_same_bits():
    box = Box.from_pairs([(-0.7, 0.3), (2.0, 2.5), (-1e3, 1e-3)])
    unit = sobol_points(Box(np.zeros(3), np.ones(3)), 1000, 11)
    expected = box.lower + unit * (box.upper - box.lower)
    assert np.array_equal(sobol_points(box, 1000, 11), expected)
