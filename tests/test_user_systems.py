import ast
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxred.core import EvaluationError, InputError
from approxred.user_systems import (
    _parse,
    compile_map,
    load_system_config,
    system_from_dict,
)


def compile_expression(source, names):
    """One expression as a function of a name -> value environment; the
    values are floats (a lone state) or equal-length arrays (a batch)."""
    fn = compile_map([source], [names], [])({})
    return lambda env: fn(np.stack(np.broadcast_arrays(*[env[n] for n in names]), -1))[..., 0]


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
        assert entry.m == 1
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

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_parameter_named_like_a_function(self, name):
        doc = demo_doc()
        doc["params"] = {name: 2.0}
        doc["rhs"] = ["-y + sin(z)", "-z + cos(y)"]
        with pytest.raises(InputError, match=f"variable and a function: \\['{name}'\\]"):
            system_from_dict(doc)

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_state_named_like_a_function(self, name):
        doc = demo_doc()
        doc["state"] = ["y", name]
        doc["rhs"] = ["-y + sin(y)", "-y + cos(y)"]
        with pytest.raises(InputError, match=f"variable and a function: \\['{name}'\\]"):
            system_from_dict(doc)

    def test_x0_length_checked(self):
        doc = demo_doc()
        doc["x0"] = [1.0]
        with pytest.raises(InputError):
            system_from_dict(doc)

    @pytest.mark.parametrize("key,value", [("x0", ["abc", 0.0]), ("x0", 1.0),
                                           ("params", {"a": "x"}), ("params", [1.0]),
                                           ("m", "one")])
    def test_a_value_of_the_wrong_type_is_an_input_error(self, key, value):
        doc = {**demo_doc(), key: value}
        with pytest.raises(InputError, match="config file holds a value of the wrong type"):
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

    # repeated subexpressions, an int and a float literal of equal value
    # (both doubles: 3**40 rounds as 3.0**40 does, to the double nearest
    # 12157665459056928800), and names the compiler's temporaries must not
    # clash with
    SHARED = {
        "name": "shared",
        "state": ["y", "_0", "__0"],
        "m": 1,
        "params": {"_pow": 0.5},
        "rhs": ["(3**40 - 12157665459056928800)*y + sin(_0)*sin(_0) + _pow*y**2",
                "(3.0**40 - 12157665459056928800)*_0 + sin(_0) - __0",
                "-sin(_0)*sin(_0) + __0*_pow**2 + y**2"],
    }

    def assert_bit_identical_to_one_by_one(self, doc):
        entry, _ = system_from_dict(doc)
        n = len(doc["state"])
        exprs = [compile_map([src], [doc["state"]], list(doc["params"]))(doc["params"])
                 for src in doc["rhs"]]
        X = np.random.default_rng(3).uniform(0.1, 2.0, (50, n))
        for s in (X, X[7]):
            cols = [f(s)[..., 0] for f in exprs]
            got = entry.field.rhs(s)
            assert got.shape == s.shape
            assert got.tobytes() == np.stack(cols, axis=-1).tobytes()

    def test_bit_identical_to_one_by_one(self):
        self.assert_bit_identical_to_one_by_one(self.DOC)

    def test_shared_subexpressions_keep_the_bits(self):
        self.assert_bit_identical_to_one_by_one(self.SHARED)
        entry, _ = system_from_dict(self.SHARED)
        assert entry.field([1.0, 0.0, 0.0])[:2].tolist() == [0.5, 0.0]

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


class TestFloatLiterals:
    def test_integer_literals_are_doubles(self):
        # exact integers would give 1; doubles round 10**17 + 1 to 10**17
        assert compile_expression("(10**17 + 1) - 10**17 + 0*y", ["y"])({"y": 1.0}) == 0.0

    def test_an_integer_tower_overflows_instead_of_hanging(self):
        tree = _parse("9**9**9 + y", ["y"])
        constants = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)]
        assert constants and all(type(v) is float for v in constants)
        # only evaluated once the literals are known to be doubles
        with pytest.raises(EvaluationError, match="OverflowError"):
            compile_expression("9**9**9 + y", ["y"])({"y": 1.0})

    def test_an_integer_literal_reads_as_a_float_literal_does(self):
        # the nearest double, infinite beyond the float range as 1e400 is
        for big in ("1" + "0" * 400, "0x" + "f" * 4000):
            assert compile_expression(f"{big}*y + 0*y", ["y"])({"y": 1.0}) == float("inf")
        assert compile_expression("(2**53 + 1) - 2**53 + 0*y", ["y"])({"y": 1.0}) == 0.0
        assert compile_expression("12345678901234567891 - y", ["y"])({"y": 0.0}) == float(
            "12345678901234567891")


# the language's leaves: the differentiation variables y and z, a parameter
# and dyadic literals, which sympy holds exactly
LEAVES = st.sampled_from(["y", "z", "a", "0.5", "2", "1.5", "3.0"])
# exponents free of y and z: literals (zero included) and parameter expressions
EXPONENTS = st.sampled_from(["2", "3", "0.5", "-1", "-1.5", "0", "1", "a", "(a + 1)"])


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["-", "+"]), children).map(lambda t: f"({t[0]}{t[1]})"),
        st.tuples(children, EXPONENTS).map(lambda t: f"({t[0]})**{t[1]}"),
    )


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=8)
POINT = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


class TestDerivatives:
    """Compiled partial derivatives against sympy's exact ones."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(EXPRESSIONS, POINT, POINT, st.floats(0.25, 2.0))
    def test_partials_match_sympy(self, source, y, z, a):
        import mpmath
        import sympy

        Y, Z, A = sympy.symbols("y z a")
        exact = sympy.sympify(source, locals={"y": Y, "z": Z, "a": A})
        if exact.has(sympy.zoo, sympy.nan):
            return  # a division by an expression that is identically zero
        oracle = sympy.lambdify(
            (Y, Z, A), [exact, sympy.diff(exact, Y), sympy.diff(exact, Z)], "mpmath")
        with mpmath.workdps(40):
            try:
                want = [complex(w) for w in oracle(*map(mpmath.mpf, (y, z, a)))]
            except (ZeroDivisionError, OverflowError, ValueError):
                return  # a pole
        values = compile_map([source], [["y", "z"]], ["a"])({"a": a})
        combined = compile_map([source], [["y", "z"]], ["a"], wrt=["y", "z"])({"a": a})
        try:
            with np.errstate(all="ignore"):
                got = combined(np.array([y, z]))  # the value, then both partials
                value = values(np.array([y, z]))
        except EvaluationError:  # a complex or infinite value
            assert not all(w.imag == 0 and np.isfinite(w.real) for w in want)
            return
        assert got[:1].tobytes() == value.tobytes()  # the value-only map's bits
        for i, value in enumerate(want):
            if value.imag or not (np.isfinite(value.real) and np.isfinite(got[i])):
                continue  # a negative base's root, a pole or an overflow
            assert abs(got[i] - value.real) <= 1e-6 * (1.0 + abs(value.real)), (
                source, i, got[i], value.real)

    def test_an_exponent_in_the_variable_cannot_be_differentiated(self):
        with pytest.raises(InputError, match="exponent depends on it"):
            compile_map(["2**y + z"], [["y", "z"]], [], wrt=["y"])
        # z's partial needs no exponent's derivative
        fn = compile_map(["2**y + z"], [["y", "z"]], [], wrt=["z"])({})
        assert fn(np.array([3.0, 1.0])).tolist() == [9.0, 1.0]

    def test_structural_zeros_keep_infinite_terms_out(self):
        # d/dy of 1e308*z*z is no 0*inf: the term is dropped, not multiplied
        fn = compile_map(["y + 1e308*z*z"], [["y", "z"]], [], wrt=["y", "z"])({})
        with np.errstate(over="ignore"):
            assert fn(np.array([1.0, 1e200])).tolist() == [np.inf, 1.0, np.inf]

    def test_a_failing_derivative_names_its_expression(self):
        # y/(a - a) is a numpy division; its partial 1.0/(a - a) divides floats
        fn = compile_map(["y/(a - a)"], [["y"]], ["a"], wrt=["y"])({"a": 1.0})
        with pytest.raises(EvaluationError, match=re.escape("'y/(a - a)' failed")):
            with np.errstate(divide="ignore"):
                fn(np.array([1.0]))
