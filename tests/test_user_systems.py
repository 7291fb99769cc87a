import json
import re

import numpy as np
import pytest

from approxred.core import EvaluationError, InputError
from approxred.user_systems import (
    compile_expression,
    load_system_config,
    system_from_dict,
)


def demo_doc():
    return {
        "name": "demo",
        "state": ["y", "z"],
        "m": 1,
        "params": {"a": 2.0},
        "rhs": ["-a*y", "-z + 0.5*y"],
        "x0": [1.0, 0.5],
    }


class TestExpressionLanguage:
    def test_arithmetic_and_precedence(self):
        fn = compile_expression("a + 2*y**2", ["y", "a"])
        assert fn({"y": 3.0, "a": 1.0}) == 19.0

    def test_left_to_right_association(self):
        fn = compile_expression("y - z - 1", ["y", "z"])
        assert fn({"y": 10.0, "z": 4.0}) == 5.0
        fn = compile_expression("y / z / 2", ["y", "z"])
        assert fn({"y": 8.0, "z": 2.0}) == 2.0

    def test_trig_calls(self):
        fn = compile_expression("sin(y)*cos(y)", ["y"])
        assert fn({"y": 0.3}) == pytest.approx(np.sin(0.3) * np.cos(0.3))

    def test_unary_minus(self):
        fn = compile_expression("-y + -2", ["y"])
        assert fn({"y": 1.0}) == -3.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("expr", ["1/0 + y", "-y + 10.0**400", "(-8)**(1/3) - y"])
    def test_a_lone_row_and_a_batch_fail_alike(self, expr):
        fn = compile_expression(expr, ["y"])
        for y in (0.5, np.array([0.5, 1.0, 2.0])):
            with pytest.raises(EvaluationError, match=re.escape(repr(expr))):
                fn({"y": y})

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError):
            compile_expression("-a*y", ["y"])

    def test_attribute_access_rejected(self):
        with pytest.raises(InputError):
            compile_expression("y.real", ["y"])

    def test_calls_other_than_trig_rejected(self):
        with pytest.raises(InputError):
            compile_expression("exp(y)", ["y"])
        with pytest.raises(InputError):
            compile_expression("__import__('os')", ["y"])

    def test_comparison_rejected(self):
        with pytest.raises(InputError):
            compile_expression("y < 1", ["y"])

    def test_string_literal_rejected(self):
        with pytest.raises(InputError):
            compile_expression("'abc'", ["y"])


class TestSystemFromConfig:
    def test_round_trip_evaluation(self):
        entry, registry = system_from_dict(demo_doc())
        assert entry.field.n == 2
        assert entry.decomp.m == 1
        out = entry.field([2.0, 1.0])
        assert np.allclose(out, [-4.0, 0.0], atol=0)
        assert np.allclose(entry.field([0.0, 1.0]), [0.0, -1.0], atol=0)
        assert np.array_equal(entry.default_ic, [1.0, 0.5])
        assert "demo" in registry

    def test_batched_evaluation(self):
        entry, _ = system_from_dict(demo_doc())
        X = np.array([[2.0, 1.0], [0.0, 4.0]])
        out = entry.field.rhs(X)
        assert out.shape == (2, 2)
        assert np.allclose(out[1], [0.0, -4.0], atol=0)

    def test_missing_key(self):
        doc = demo_doc()
        del doc["rhs"]
        with pytest.raises(InputError):
            system_from_dict(doc)

    def test_rhs_count_must_match_state(self):
        doc = demo_doc()
        doc["rhs"] = ["-y"]
        with pytest.raises(InputError):
            system_from_dict(doc)

    def test_m_range_checked(self):
        doc = demo_doc()
        doc["m"] = 2
        with pytest.raises(InputError):
            system_from_dict(doc)

    def test_duplicate_state_names(self):
        doc = demo_doc()
        doc["state"] = ["y", "y"]
        with pytest.raises(InputError):
            system_from_dict(doc)

    def test_state_param_clash(self):
        doc = demo_doc()
        doc["params"] = {"y": 1.0}
        with pytest.raises(InputError):
            system_from_dict(doc)

    def test_x0_length_checked(self):
        doc = demo_doc()
        doc["x0"] = [1.0]
        with pytest.raises(InputError):
            system_from_dict(doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(demo_doc()))
        entry, registry = load_system_config(path)
        assert entry.name == "demo"
        factory, defaults = registry["demo"]
        resolved = factory({**defaults, "a": 3.0})
        assert resolved.field([1.0, 0.0])[0] == -3.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_system_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            load_system_config(path)


class TestCompiledSystem:
    """A config's rhs is one compiled function with the bits of evaluating
    each expression on its own."""

    DOC = {
        "name": "mixed",
        "state": ["y", "p", "q", "r"],
        "m": 1,
        "params": {"a": 0.7, "k": 2.0},
        "rhs": ["-a*y + 0.3*sin(p)*cos(q)", "q**2 - y**0.5 + 1/3", "2.5",
                "-k*p**3 + (1 + y)**-1.5 - r"],
    }

    def test_bit_identical_to_one_by_one(self):
        entry, _ = system_from_dict(self.DOC)
        names = self.DOC["state"] + list(self.DOC["params"])
        exprs = [compile_expression(src, names) for src in self.DOC["rhs"]]
        X = np.random.default_rng(3).uniform(0.1, 2.0, (50, 4))
        for s in (X, X[7]):
            env = {nm: s[..., i] for i, nm in enumerate(self.DOC["state"])}
            env.update(self.DOC["params"])
            cols = [np.broadcast_to(np.asarray(f(env), dtype=float), s[..., 0].shape)
                    for f in exprs]
            got = entry.field.rhs(s)
            assert got.shape == s.shape
            assert got.tobytes() == np.stack(cols, axis=-1).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rhs,named",
        [
            (["-y", "10**400"], "10**400"),  # an integer beyond float range
            (["-y", "(-8)**(1/3)"], "(-8)**(1/3)"),  # a complex constant, never cast
            (["(-8)**(1/3) + y", "1/0"], "(-8)**(1/3) + y"),  # the first failure
            (["-y", "z/(y - y)"], None),  # numpy division: inf, no error
        ],
    )
    def test_failures_name_the_expression(self, rhs, named):
        entry, _ = system_from_dict({"name": "bad", "state": ["y", "z"], "m": 1, "rhs": rhs})
        for s in (np.array([0.5, 1.0]), np.array([[0.5, 1.0], [2.0, 3.0]])):
            if named is None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    assert np.isinf(entry.field.rhs(s)[..., 1]).all()
                continue
            with pytest.raises(EvaluationError, match=re.escape(repr(named))):
                entry.field.rhs(s)
