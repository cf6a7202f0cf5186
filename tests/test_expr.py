import copy
import gc
import hashlib
import math
import operator
import pickle
import random
import struct
import sys
import threading
import timeit
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadica import core, expr
from monadica.calculus import (
    InverseExpr, NaturalExtension, compose_ext, gen_eval, inverse_extension, taylor_expand,
)
from monadica.core import make
from monadica.errors import DomainError, MonadicaError, NotDifferentiable, OutOfDomain
from monadica.expr import (
    Const,
    Cos,
    Exp,
    Expr,
    Log,
    Mul,
    PowReal,
    Root,
    Sin,
    Var,
    compile_real,
    compose,
    differentiate,
    iter_nodes,
    parse,
    pow_int,
)
from test_compile import NODES, Counted, outcome, random_tree

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
        e = compose(Sin(X), pow_int(X, 2))
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

    def test_a_real_power_keeps_its_domain_with_an_int_exponent(self):
        with pytest.raises(OutOfDomain, match="real power needs a positive base"):
            differentiate(PowReal(X, 2)).eval_real(-1.0)

    def test_quotient_rule(self):
        e = X / (Const(1.0) + pow_int(X, 2))
        got = differentiate(e).eval_real(2.0)
        assert got == pytest.approx((1 * 5 - 2 * 4) / 25, rel=1e-15)

    def test_chain_rule_through_compose(self):
        e = compose(Exp(X), Sin(X))
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

    def test_a_lifted_node_without_a_derivative_is_not_differentiable(self):
        with pytest.raises(NotDifferentiable, match="^Counted states no derivative$"):
            differentiate(Counted([0], X) * X)


class TestCompose:
    def test_composing_with_the_variable_gives_the_same_node(self):
        for text in ("x*log(x)", "exp(sin(x))*x^3 + log(2+cos(x))/(1+x^2)", "x", "2.5"):
            o = parse(text)
            assert compose(o, Var()) is o

    def test_no_domain_check_is_folded_away(self):
        # folded, 0 * log(0) would be the constant 0
        e = compose(parse("x*log(x)"), Const(0.0))
        with pytest.raises(OutOfDomain, match="^log needs a positive argument, got 0.0$"):
            e.eval_real(1.0)

    def test_a_deep_outer_tree_composes(self):
        deep, want = X, Exp(X)
        for _ in range(5000):
            deep, want = Sin(deep), Sin(want)
        assert compose(deep, Exp(X)) is want

    def test_a_composite_prints_as_text_that_parses_to_it(self):
        c = compose(parse("exp(x) * log(x)"), parse("2 + sin(x)"))
        assert str(c) == "(exp((2.0 + sin(x))) * log((2.0 + sin(x))))"
        assert parse(str(c)) is c

    def test_an_inverse_composes_over_its_operand(self):
        g = inverse_extension(NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0))
        inner = NaturalExtension.on_interval(parse("sin(x)"), -1.0, 1.0)
        h = compose_ext(g, inner)
        assert type(h.expr) is InverseExpr and h.expr.fn is g.expr.fn and h.expr.arg is inner.expr
        assert str(g.expr) == "inverse((exp(x) + x))"
        assert str(h.expr) == "inverse((exp(x) + x))(sin(x))"
        points = (-0.9, -0.3, 0.0, 0.4, 0.8)
        for xi in points:
            assert h.expr.eval_real(xi) == g.expr.eval_real(math.sin(xi))
        for k in range(3):
            d = differentiate(h.expr, k)
            fn = compile_real(d)
            for xi in points:
                assert outcome(fn, xi) == outcome(d.eval_real, xi), (k, xi)
        # the chain rule: cos(x) / f'(g(sin(x))), with f' = exp + 1
        for xi in points:
            y = g.expr.eval_real(math.sin(xi))
            want = math.cos(xi) / (math.exp(y) + 1.0)
            assert h.deriv_at(xi) == pytest.approx(want, rel=1e-12)


def to_sympy(e, x, sympy):
    """The sympy expression of a tree, with the variable bound to x."""
    kind = type(e).__name__
    if kind == "Var":
        return x
    if kind == "Const":
        return sympy.Rational(e.value)  # the float's exact binary value
    if kind in ("PowInt", "PowReal", "Root"):
        b = to_sympy(e.base, x, sympy)
        if kind == "Root":
            return b ** sympy.Rational(1, e.degree)
        return b ** (e.exponent if kind == "PowInt" else sympy.Float(e.exponent, 30))
    args = [to_sympy(getattr(e, name), x, sympy) for name in e._fields]
    binary = {"Add": operator.add, "Sub": operator.sub, "Mul": operator.mul, "Div": operator.truediv}
    if kind in binary:
        return binary[kind](*args)
    unary = {"Neg": operator.neg, "Exp": sympy.exp, "Log": sympy.log, "Sin": sympy.sin, "Cos": sympy.cos}
    return unary[kind](*args)


def test_derivatives_match_sympy_on_random_trees_of_every_node_type():
    # an oracle that shares no rule with the library: sympy differentiates,
    # mpmath evaluates at 30 digits
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    t = sympy.Symbol("t", real=True)
    kinds, compared = set(), 0
    with mpmath.workdps(30):
        for seed in range(80):
            tree = random_tree(random.Random(seed), 3, [], Const(0.75))
            kinds.update(type(n).__name__ for n in iter_nodes(tree))
            symbolic = to_sympy(tree, t, sympy)
            if symbolic.has(sympy.zoo, sympy.nan):
                continue  # sympy folded a constant 1/0: no value to compare
            for order in (1, 2, 3):
                symbolic = sympy.diff(symbolic, t)
                want = sympy.lambdify(t, symbolic, "mpmath")
                ours = differentiate(tree, order)
                for xi in (-1.7, -0.6, 0.3, 0.7, 1.3, 2.2):
                    try:
                        got = ours.eval_real(xi)
                    except MonadicaError:
                        continue
                    ref = complex(want(mpmath.mpf(xi)))
                    assert ref.imag == 0.0, (str(tree), order, xi, ref)
                    assert abs(got - ref.real) <= 1e-9 * max(1.0, abs(ref.real)), (
                        str(tree), order, xi, got, ref
                    )
                    compared += 1
    assert kinds == {cls.__name__ for cls in NODES}
    assert compared > 1000


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


# differentiation builds equal subtrees again and again (sin's slope makes a
# cos(u) beside cos's own); interned, each is one node
F = "exp(sin(x))*x^3 + log(2+cos(x))/(1+x^2)"


def _distinct_nodes(e):
    """The node objects of e's DAG, each once."""
    seen, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(c for c in node._values() if isinstance(c, Expr))
    return list(seen.values())


class TestInterning:
    def test_equal_trees_are_one_object(self):
        assert parse(F) is parse(F)
        d = differentiate(parse(F), 4)
        assert differentiate(parse(F), 4) is d
        # no two node objects of the derivative have the same structure: the
        # operands, by induction canonical, by identity; constants by repr
        nodes = _distinct_nodes(d)
        shapes = {
            (type(n), *(id(c) if isinstance(c, Expr) else (type(c), repr(c)) for c in n._values()))
            for n in nodes
        }
        assert len(shapes) == len(nodes)
        # a subtree built apart is the derivative's own node
        cos_x = Cos(X)
        assert any(n is cos_x for n in nodes)

    def test_signed_zero_constants_stay_apart_and_keep_their_values(self):
        zero, minus_zero = Const(0.0), Const(-0.0)
        assert zero is not minus_zero and zero != minus_zero
        assert Const(-0.0) is minus_zero
        for c, sign in ((zero, 1.0), (minus_zero, -1.0)):
            e = Mul(X, c)
            for got in (e.eval_real(1.0), compile_real(e)(1.0)):
                assert got == 0.0 and math.copysign(1.0, got) == sign

    def test_a_node_no_caller_holds_leaves_the_table(self):
        node = Mul(Exp(X), Const(1234.5678))
        key = (Mul, core._key(Exp(X)), core._key(Const(1234.5678)))
        assert core._INTERNED[key]() is node
        ref = weakref.ref(node)
        del node
        gc.collect()
        assert ref() is None and key not in core._INTERNED

    def test_threads_racing_to_build_the_same_nodes_get_one_object_each(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                # constants of this round only, so every node is new
                texts = [f"sin(x * {round_}.{k}17) + exp({k}.{round_}31 - x)^3" for k in range(20)]
                built = [[] for _ in range(8)]
                start = threading.Barrier(len(built))

                def work(out):
                    start.wait()
                    out.extend(differentiate(parse(t), 2) for t in texts)

                threads = [threading.Thread(target=work, args=(out,)) for out in built]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                for trees in built:
                    assert len(trees) == len(texts)
                    assert all(a is b for a, b in zip(trees, built[0]))
        finally:
            sys.setswitchinterval(interval)

    def test_parsing_held_text_again_runs_no_parser(self, monkeypatch):
        text = "sin(x * 3.0917) + exp(x)^2"
        tree = parse(text)
        assert core._INTERNED[(parse, text)]() is tree

        def refuse(*args):
            raise AssertionError("the parser ran on held text")

        monkeypatch.setattr(expr, "_climb", refuse)
        assert parse(text) is tree

    def test_differently_spaced_texts_are_two_entries_for_one_node(self):
        tight, loose = "x*2.4617", " x * 2.4617 "
        tree = parse(tight)
        assert parse(loose) is tree
        assert core._INTERNED[(parse, tight)]() is core._INTERNED[(parse, loose)]() is tree

    def test_the_text_memo_keeps_no_tree_alive(self):
        text = "log(2 + cos(x)) * 9.8173"
        ref = weakref.ref(parse(text))
        gc.collect()
        assert ref() is None and (parse, text) not in core._INTERNED

    @pytest.mark.parametrize("text", ["x +", "(" * 600 + "x" + ")" * 600])
    def test_a_text_that_fails_to_parse_is_not_stored(self, text):
        messages = []
        for _ in range(2):
            with pytest.raises(DomainError) as info:
                parse(text)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert (parse, text) not in core._INTERNED

    def test_a_text_of_another_type_is_refused_before_any_lookup(self, monkeypatch):
        class Text(str):
            pass

        # a table that raises on any read shows that no lookup happens
        monkeypatch.setattr(core, "_INTERNED", None)
        for bad in (Text("x"), b"x"):
            with pytest.raises(DomainError, match="an expression must be text"):
                parse(bad)

    def test_threads_racing_to_parse_the_same_text_get_one_tree_each(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                # texts of this round only, so every entry is new
                texts = [f"cos(x * {round_}.{k}43) - log(2 + x^2) * {k}.{round_}59" for k in range(20)]
                built = [[] for _ in range(8)]
                start = threading.Barrier(len(built))

                def work(out):
                    start.wait()
                    out.extend(parse(t) for t in texts)

                threads = [threading.Thread(target=work, args=(out,)) for out in built]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                for trees in built:
                    assert len(trees) == len(texts)
                    assert all(a is b for a, b in zip(trees, built[0]))
                for text, tree in zip(texts, built[0]):
                    assert core._INTERNED[(parse, text)]() is tree
        finally:
            sys.setswitchinterval(interval)

    def test_hash_and_equality_of_a_large_derivative_walk_no_tree(self):
        f = parse(F)
        d, again, lower = differentiate(f, 12), differentiate(f, 12), differentiate(f, 11)
        for check in (lambda: hash(d), lambda: d == again, lambda: d == lower):
            # the best of 5, so a pause of the host is not counted
            assert min(timeit.repeat(check, number=1, repeat=5)) < 1e-3
        assert d == again and d != lower


class TestPrinting:
    def test_a_large_derivative_prints_each_distinct_node_once(self):
        d = differentiate(parse(F), 7)
        show = expr._Show()
        text = show.walk(d, "x")
        assert len(show.memo) == len(_distinct_nodes(d))
        # the text the per-class printers gave (0.67 s on a two-CPU x86-64 host)
        assert len(text) == 7179708
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "936449979a8c6c22111adc2435633d31d07ebd71282a8bed1fbf430594475563"
        )
        assert min(timeit.repeat(lambda: str(d), number=1, repeat=3)) < 0.25

    def test_a_lifted_node_without_text_of_its_own_shows_its_repr(self):
        c = Counted([0], X)
        assert str(Sin(c)) == f"sin({c!r})"

    def test_a_deep_derivative_prints_pickles_and_copies_or_is_too_deep(self):
        text = "x"
        for _ in range(200):
            text = f"sin({text})"
        d = differentiate(parse(text), 2)
        done = {}
        for fn in (str, repr, pickle.dumps, copy.deepcopy):
            try:
                done[fn] = fn(d)
            except DomainError as exc:
                assert str(exc) == expr.TOO_DEEP, fn
        # printing walks each distinct node once, so this one prints
        assert done[str].startswith("((((-sin(sin(") and len(done[str]) == 13775784
        assert copy.deepcopy(d) is d and copy.copy(d) is d
        if pickle.dumps in done:
            assert pickle.loads(done[pickle.dumps]) is d

    def test_a_copy_is_the_node_without_walking_it(self):
        deep = X
        for _ in range(20000):
            deep = Sin(deep)
        assert copy.deepcopy(deep) is deep and copy.copy(deep) is deep
        # str walks the plan; repr expands the fields recursively
        assert str(deep) == "sin(" * 20000 + "x" + ")" * 20000
        with pytest.raises(DomainError, match=expr.TOO_DEEP):
            repr(deep)


def recursive_walk(arith, e, x, memo):
    """The walk as the rules once ran it, recursively: each distinct node
    once, its operands first, left to right; the oracle of the plan walk."""
    if e not in memo:
        operands = [recursive_walk(arith, v, x, memo) for v in e._values() if isinstance(v, Expr)]
        memo[e] = e.rule(arith, x, *operands)
    return memo[e]


def _bits(value):
    """A walk's value, with floats by their bits, so NaNs and signed zeros compare."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value


def _walked(walk):
    try:
        return "value", _bits(walk())
    except Exception as exc:  # the first error itself is what gets compared
        return "error", type(exc), str(exc)


_INVERSE = []  # an inverse node no other test builds, made on first use


class TestPlanWalk:
    """Arithmetic.walk runs each root's plan in one loop, without recursion."""

    def test_a_chain_20000_deep_takes_every_walk(self):
        deep, value, slope, at_one = X, 0.5, 1.0, 1.0
        for _ in range(20000):
            deep, value, slope = Sin(deep), math.sin(value), math.cos(value) * slope
            at_one = math.sin(at_one)
        assert deep.eval_real(0.5) == value and compile_real(deep)(0.5) == value
        assert gen_eval(deep, make(0.5, {"h": 1.0})) == make(value, {"h": slope})
        assert differentiate(deep).eval_real(0.5) == pytest.approx(slope, rel=1e-12)
        composed = compose(deep, Exp(X))
        assert composed.eval_real(0.0) == at_one
        assert str(deep) == "sin(" * 20000 + "x" + ")" * 20000
        # the pickle is a flat table, which unpickles to the node itself
        assert pickle.loads(pickle.dumps(deep)) is deep
        assert pickle.loads(pickle.dumps(composed)) is composed

    @pytest.mark.parametrize("order", [22, 30, 40])
    def test_orders_past_the_recursion_limit_match_mpmath(self, order):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            f = lambda t: mpmath.exp(mpmath.sin(t)) * t**3 + mpmath.log(2 + mpmath.cos(t)) / (1 + t**2)
            want = float(mpmath.diff(f, mpmath.mpf("0.3"), order))
        assert differentiate(parse(F), order).eval_real(0.3) == pytest.approx(want, rel=1e-12)

    def test_a_walked_tree_leaves_the_table_with_its_last_reference(self):
        # a plan holds a root's descendants, never the root, so no cycle
        # keeps a tree alive: with the collector off, every node that the
        # walks built leaves core._INTERNED as its last reference goes
        text = "exp(sin(x))*x^3 + log(2+cos(x))/(1+x^2) * 73.125"
        gc.collect()
        gc.disable()
        try:
            before = len(core._INTERNED)
            e = parse(text)
            d = differentiate(e, 3)
            e.eval_real(0.3), gen_eval(d, make(0.3, {"h": 1.0})), compile_real(d)(0.3), str(d)
            assert compose(d, X) is d and pickle.loads(pickle.dumps(d)) is d
            refs = [weakref.ref(e), weakref.ref(d)]
            assert len(core._INTERNED) > before
            del e, d
            assert [r() for r in refs] == [None, None]
            assert len(core._INTERNED) == before and (parse, text) not in core._INTERNED
        finally:
            gc.enable()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([-2.0, -0.5, 0.0, 0.3, 1.0, 2.5, 800.0]))
    def test_the_plan_walk_is_the_recursive_walk(self, seed, point):
        if not _INVERSE:
            ext = NaturalExtension.on_interval(parse("2*x + sin(x)"), -2.0, 2.0)
            _INVERSE.append(InverseExpr(ext, X))
        tree = random_tree(random.Random(seed), 5, [], _INVERSE[0])
        for arith, x in ((expr._Float, point), (expr._Pair, (point, 1.0)), (expr._Show, "x")):
            memo = {}
            want = _walked(lambda: recursive_walk(arith(), tree, x, memo))
            walker = arith()
            assert _walked(lambda: walker.walk(tree, x)) == want, (arith.__name__, str(tree), point)
            if want[0] == "value":
                assert len(walker.memo) == len(memo)


class TestDerivativeCycles:
    # nodes are interned, so an order that repeats an earlier one is that tree
    CYCLES = [("x", 2, 1), ("sin(x)", 0, 4), ("exp(x)", 0, 1), ("x^3", 4, 1)]

    @pytest.mark.parametrize("text, first, period", CYCLES, ids=[c[0] for c in CYCLES])
    def test_a_repeated_order_is_the_earlier_tree(self, text, first, period):
        e = parse(text)
        assert differentiate(e, first + period) is differentiate(e, first)
        for n in (first, first + 1, 97, 10**9, 10**18 + 3):
            assert differentiate(e, n) is differentiate(e, first + (n - first) % period), n

    @pytest.mark.parametrize("text, first, period", CYCLES, ids=[c[0] for c in CYCLES])
    def test_an_extension_reads_its_orders_from_the_cycle(self, text, first, period):
        # deriv_higher and eval_higher read differentiate's sequence, so a
        # high order answers at once and is the earlier order's value
        e = parse(text)
        f = NaturalExtension.on_interval(e, -2.0, 2.0)
        bits = struct.Struct("<d").pack

        def at(n):
            return bits(differentiate(e, n if n < first else first + (n - first) % period).eval_real(0.5))

        for n in (first + period, 97, 10**9, 10**18 + 3):
            assert bits(f.deriv_higher(n, 0.5)) == at(n), n
            got = f.eval_higher(n, make(0.5, {"h": 1.0}))
            assert (bits(got.shadow), bits(got.coefficient("h"))) == (at(n - 1), at(n)), n

    def test_each_order_is_walked_once_until_one_repeats(self, monkeypatch):
        walked = []
        walk = expr._Tree.walk

        def counting(self, root, x):
            walked.append(root)
            return walk(self, root, x)

        monkeypatch.setattr(expr._Tree, "walk", counting)
        f = NaturalExtension.on_interval(parse("sin(x)"), -2.0, 2.0)
        taylor_expand(f, 0.3, 169, make(0.8))
        assert len(walked) <= 4, [str(t) for t in walked]
        trees = f.deriv_exprs(170)
        assert len(trees) == 171 and len({id(t) for t in trees}) == 4
        assert len(walked) <= 4

    def test_orders_that_never_repeat_are_walked_one_by_one(self):
        # a factor of 2.0 builds up, so no order of exp(2*x) repeats another
        d = differentiate(parse("exp(2*x)"), 12)
        assert d.eval_real(0.0) == 4096.0
