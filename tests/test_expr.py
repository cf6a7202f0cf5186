import math
import operator

import pytest

from monadica.calculus import gen_eval
from monadica.core import make
from monadica.errors import DomainError, OutOfDomain
from monadica.expr import (
    Compose,
    Const,
    Cos,
    Exp,
    Log,
    PowReal,
    Root,
    Sin,
    Var,
    compile_real,
    differentiate,
    parse,
    pow_int,
)

X = Var()


class TestEvaluation:
    def test_polynomial(self):
        e = pow_int(X, 2) + 3 * X
        assert e.eval_real(2.0) == 10.0

    def test_division_by_zero(self):
        with pytest.raises(OutOfDomain):
            (Const(1.0) / X).eval_real(0.0)

    def test_log_and_root_domains(self):
        with pytest.raises(OutOfDomain):
            Log(X).eval_real(0.0)
        with pytest.raises(OutOfDomain):
            Root(X, 2).eval_real(-1.0)
        with pytest.raises(OutOfDomain):
            PowReal(X, 0.5).eval_real(-2.0)

    @pytest.mark.parametrize(
        "text, at",
        [
            ("exp(x)", 1000.0),
            ("x^400", 10.0),
            ("1 + pow(400.5, x)", 10.0),
            # the product overflows to inf silently; sin(inf) is a ValueError
            ("sin(exp(x) * exp(x))", 400.0),
            ("cos(x * x)", 1e200),
        ],
    )
    def test_overflow_is_out_of_domain_on_every_path(self, text, at):
        e = parse(text)

        def extended(xi):
            return gen_eval(e, make(xi, {"h": 1}))

        for evaluate in (e.eval_real, compile_real(e), extended):
            with pytest.raises(OutOfDomain, match="overflows at"):
                evaluate(at)

    def test_compose(self):
        e = Compose(Sin(X), pow_int(X, 2))
        assert e.eval_real(2.0) == math.sin(4.0)


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
@pytest.mark.parametrize("bad", [True, "a", None, 10**400])
def test_operands_are_expressions_or_numbers(op, bad):
    apply = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op]
    for left, right in ((X, bad), (bad, X)):
        with pytest.raises(DomainError, match="^constant (must be a number, not|lies beyond)"):
            apply(left, right)


def test_bool_exponents_rejected():
    assert X**2 == pow_int(X, 2) and X**2.0 == PowReal(X, 2.0)
    with pytest.raises(TypeError):
        X**True


class TestDifferentiation:
    def test_square(self):
        d = differentiate(pow_int(X, 2))
        assert d.eval_real(5.0) == 10.0

    def test_exponential_is_its_own_derivative(self):
        assert differentiate(Exp(X)) == Exp(X)

    def test_constant(self):
        assert differentiate(Const(4.0)) == Const(0.0)

    def test_primitive_rules(self):
        assert differentiate(Log(X)).eval_real(2.0) == 0.5
        assert differentiate(Sin(X)).eval_real(0.7) == math.cos(0.7)
        assert differentiate(Cos(X)).eval_real(0.7) == -math.sin(0.7)
        assert differentiate(PowReal(X, 1.5)).eval_real(4.0) == 1.5 * 4.0**0.5

    def test_quotient_rule(self):
        e = X / (Const(1.0) + pow_int(X, 2))
        got = differentiate(e).eval_real(2.0)
        assert got == pytest.approx((1 * 5 - 2 * 4) / 25, rel=1e-15)

    def test_chain_rule_through_compose(self):
        e = Compose(Exp(X), Sin(X))
        got = differentiate(e).eval_real(0.5)
        want = math.exp(math.sin(0.5)) * math.cos(0.5)
        assert got == pytest.approx(want, rel=1e-15)

    def test_higher_orders_fold(self):
        d3 = differentiate(pow_int(X, 2), 3)
        assert d3 == Const(0.0)

    @pytest.mark.parametrize("order", [1.5, "2", None, -1])
    def test_order_must_be_a_nonnegative_integer(self, order):
        with pytest.raises(DomainError) as info:
            differentiate(parse("sin(x)"), order)
        assert str(info.value) == f"derivative order must be an integer >= 0, not {order!r}"


class TestParser:
    def test_arithmetic(self):
        assert parse("x^2 + 3*x").eval_real(2.0) == 10.0
        assert parse("(1 + x) * (1 - x)").eval_real(0.5) == 0.75
        assert parse("-x^2").eval_real(3.0) == -9.0
        assert parse("2e-3 * x").eval_real(1.0) == 0.002

    def test_functions(self):
        assert parse("exp(x)").eval_real(1.0) == math.e
        assert parse("sqrt(x)").eval_real(4.0) == 2.0
        assert parse("root(3, x)").eval_real(8.0) == pytest.approx(2.0, rel=1e-15)
        assert parse("pow(0.5, x)").eval_real(9.0) == 3.0
        assert parse("sin(pi)").eval_real(0.0) == math.sin(math.pi)

    def test_power_kinds(self):
        assert parse("x^2").eval_real(-3.0) == 9.0
        assert parse("x**2").eval_real(3.0) == 9.0
        assert parse("x^-1").eval_real(4.0) == 0.25
        with pytest.raises(OutOfDomain):
            parse("x^0.5").eval_real(-3.0)

    def test_rejects_garbage(self):
        for text in ("x +", "f(x)", "root(x, 2)", "x ^ x", "1 2", "@"):
            with pytest.raises(DomainError):
                parse(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "unexpected end of expression"),
            ("   ", "unexpected end of expression"),
            ("x +", "unexpected end of expression"),
            ("(x", "unexpected end of expression"),
            ("sin(x", "unexpected end of expression"),
            ("x)", "trailing input at ')'"),
            ("1 2", "trailing input at '2'"),
            ("x,", "trailing input at ','"),
            ("x $ 1", "bad expression syntax near ' $ 1'"),
            ("2 @ x", "bad expression syntax near ' @ x'"),
            (".5.", "bad expression syntax near '.'"),
            ("x \t#", "bad expression syntax near ' \\t#'"),
            ("sin x", "expected '(', got 'x'"),
            ("foo(x)", "unknown name 'foo' (the variable is 'x')"),
            ("root(x, 2)", "first argument of root must be constant"),
            ("root(1.5, x)", "root degree must be an integer > 1"),
            ("x^x", "exponents must be constants"),
            ("pow(x, 2)", "first argument of pow must be constant"),
            ("1e999 * x", "numeric literal 1e999 overflows to infinity"),
            ("exp()", "unexpected token ')'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(DomainError) as info:
            parse(text)
        assert str(info.value) == message

    def test_trailing_whitespace_is_ignored(self):
        assert parse(" x * 2 \t\n") == parse("x*2")
