"""gen_eval (the node rules over float pairs) against two walks it replaced,
kept here as oracles: the per-node walk over generalized values, and the
hand-written walk over (value, slope) float pairs."""

import math
import random
import struct

import pytest

from monadica import core
from monadica.calculus import (
    InverseExpr,
    MonadRule,
    NaturalExtension,
    PiecewiseExtension,
    gen_eval,
)
from monadica.core import GeneralizedReal, make
from monadica.errors import DomainError, MonadicaError, NotInvertible, OutOfDomain
from monadica.expr import (
    Add,
    Const,
    Cos,
    Div,
    Exp,
    Log,
    Mul,
    Neg,
    PowInt,
    PowReal,
    Root,
    Sin,
    Sub,
    Var,
    parse,
)
from test_compile import random_tree

ORDINARY = (-2.0, -1.0, -0.5, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0)
EXTREME = (1e200, -1e200, 1e-200, 1e154)
DPART = {"h": 1.0, "e:1": -0.5, "g:0.5": 2.0}


def _scale(x, factor):
    return {g: factor * c for g, c in x.dpart.items()}


def reference(e, x):
    """The per-node walk: every node builds a value through the ring ops."""
    try:
        return _reference(e, x)
    except OverflowError as exc:
        raise OutOfDomain(f"evaluation overflows at {x}") from exc


def _reference(e, x):
    ref = _reference
    if isinstance(e, Const):
        return GeneralizedReal(e.value)
    if isinstance(e, Var):
        return x
    if isinstance(e, Add):
        return core.add(ref(e.lhs, x), ref(e.rhs, x))
    if isinstance(e, Sub):
        return core.sub(ref(e.lhs, x), ref(e.rhs, x))
    if isinstance(e, Mul):
        return core.mul(ref(e.lhs, x), ref(e.rhs, x))
    if isinstance(e, Div):
        return core.div(ref(e.lhs, x), ref(e.rhs, x))
    if isinstance(e, Neg):
        return core.neg(ref(e.arg, x))
    if isinstance(e, PowInt):
        u = ref(e.base, x)
        if e.exponent >= 0:
            return core.pow_nat(u, e.exponent)
        return core.inv(core.pow_nat(u, -e.exponent))
    if isinstance(e, PowReal):
        u = ref(e.base, x)
        s = u.shadow
        if s <= 0.0:
            raise OutOfDomain(f"real power needs a positive shadow, got {s!r}")
        a = e.exponent
        return GeneralizedReal(s**a, _scale(u, a * s ** (a - 1.0)))
    if isinstance(e, Root):
        u = ref(e.base, x)
        try:
            return core.root(u, e.degree)
        except DomainError as exc:
            raise OutOfDomain(str(exc)) from exc
    if isinstance(e, Exp):
        u = ref(e.arg, x)
        v = math.exp(u.shadow)
        return GeneralizedReal(v, _scale(u, v))
    if isinstance(e, Log):
        u = ref(e.arg, x)
        if u.shadow <= 0.0:
            raise OutOfDomain(f"log needs a positive shadow, got {u.shadow!r}")
        return GeneralizedReal(math.log(u.shadow), _scale(u, 1.0 / u.shadow))
    if isinstance(e, Sin):
        u = ref(e.arg, x)
        return GeneralizedReal(math.sin(u.shadow), _scale(u, math.cos(u.shadow)))
    if isinstance(e, Cos):
        u = ref(e.arg, x)
        return GeneralizedReal(math.cos(u.shadow), _scale(u, -math.sin(u.shadow)))
    if isinstance(e, InverseExpr):
        u = ref(e.arg, x)
        s0 = e.invert(u.shadow)
        return GeneralizedReal(s0, _scale(u, 1.0 / e.fn.real_fn(1)(s0)))
    raise TypeError(f"cannot evaluate node {type(e).__name__}")


def float_pair_gen_eval(e, x):
    """gen_eval as the hand-written (value, slope) walk computed it."""
    try:
        value, slope = float_pair_walk(e, x.shadow, 1.0)
    except (OverflowError, ValueError) as exc:
        raise OutOfDomain(f"evaluation overflows at {x}") from exc
    return core._from_floats(float(value), _scale(x, slope))


def float_pair_walk(e, u, du):
    """(value, slope) of e with the variable bound to the pair (u, du); the
    lhs of a binary node is walked first."""
    t = type(e)
    if t is Var:
        return u, du
    if t is Const:
        return e.value, 0.0
    if t is Add or t is Sub or t is Mul or t is Div:
        a, da = float_pair_walk(e.lhs, u, du)
        b, db = float_pair_walk(e.rhs, u, du)
        if t is Add:
            return a + b, da + db
        if t is Sub:
            return a - b, da - db
        if t is Mul:
            return a * b, da * b + a * db
        if b == 0.0:
            raise NotInvertible("infinitesimals have no multiplicative inverse")
        q = a / b
        return q, (da - q * db) / b
    if t is Neg:
        a, da = float_pair_walk(e.arg, u, du)
        return -a, -da
    if t is PowInt:
        a, da = float_pair_walk(e.base, u, du)
        m = e.exponent
        if m > 0:
            return a**m, m * a ** (m - 1) * da
        if m == 0:
            return a**m, 0.0
        if a == 0.0:
            raise NotInvertible("infinitesimals have no multiplicative inverse")
        p = a**m
        return p, m * (p / a) * da
    if t is Exp:
        a, da = float_pair_walk(e.arg, u, du)
        v = math.exp(a)
        return v, v * da
    if t is Sin:
        a, da = float_pair_walk(e.arg, u, du)
        return math.sin(a), math.cos(a) * da
    if t is Cos:
        a, da = float_pair_walk(e.arg, u, du)
        return math.cos(a), -math.sin(a) * da
    if t is Log:
        a, da = float_pair_walk(e.arg, u, du)
        if a <= 0.0:
            raise OutOfDomain(f"log needs a positive shadow, got {a!r}")
        return math.log(a), da / a
    if t is PowReal:
        a, da = float_pair_walk(e.base, u, du)
        if a <= 0.0:
            raise OutOfDomain(f"real power needs a positive shadow, got {a!r}")
        alpha = e.exponent
        p = a**alpha
        return p, alpha * (p / a) * da
    if t is Root:
        a, da = float_pair_walk(e.base, u, du)
        if a <= 0.0:
            raise OutOfDomain("root requires a positive value (shadow > 0)")
        m = e.degree
        r = math.sqrt(a) if m == 2 else a ** (1.0 / m)
        return r, r / (m * a) * da
    if t is InverseExpr:
        a, da = float_pair_walk(e.arg, u, du)
        v = e.invert(a)
        d = e.fn.real_fn(1)(v)
        if d == 0.0:
            raise OutOfDomain(f"division by zero at {a!r}")
        return v, 1.0 / d * da
    raise TypeError(f"cannot evaluate node {t.__name__}")


def bits(value):
    """The float's bytes, or the error's type."""
    if isinstance(value, Exception):
        return type(value)
    if isinstance(value, GeneralizedReal):
        return bits(value.shadow), {g: bits(c) for g, c in value.dpart.items()}
    return struct.pack("<d", value)


def outcome(fn, *args):
    try:
        return fn(*args)
    except MonadicaError as exc:
        return exc


def trees():
    inverse = InverseExpr(NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0), Var())
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(40):
            tree = random_tree(rng, 4, [], inverse)
            yield tree
            yield tree.deriv()


def test_gen_eval_matches_the_per_node_walk():
    both = same_shadow_as_reference = 0
    for e in trees():
        for s in (*ORDINARY, 0.0, *EXTREME):
            for x in (make(s, DPART), make(s)):
                got = outcome(gen_eval, e, x)  # never a bare Python exception
                try:
                    real = e.eval_real(s)
                except MonadicaError:
                    real = None
                if isinstance(got, GeneralizedReal):
                    # the shadow is the float eval_real computes
                    assert got.shadow == real, (str(e), s)
                elif not x.dpart and real is not None and math.isfinite(real):
                    pytest.fail(f"{e} at {s}: eval_real gives {real!r}, gen_eval {got!r}")
                if s in EXTREME:
                    continue
                want = outcome(reference, e, x)
                if isinstance(want, MonadicaError) or isinstance(got, MonadicaError):
                    assert type(got) is type(want), (str(e), s, got, want)
                    continue
                both += 1
                same_shadow_as_reference += got.shadow == want.shadow
                assert abs(got.shadow - want.shadow) <= 1e-9 * max(1.0, abs(want.shadow))
                for g in got.dpart.keys() | want.dpart.keys():
                    w = want.coefficient(g)
                    assert abs(got.coefficient(g) - w) <= 1e-9 * max(1.0, abs(w)), (str(e), s, g)
    assert both > 2000
    # the per-node walk divides as u * (1 / v) and polishes roots by Newton
    assert same_shadow_as_reference < both


def test_gen_eval_matches_the_float_pair_walk_bit_for_bit():
    values = 0
    for e in trees():
        for s in (*ORDINARY, 0.0, *EXTREME):
            for x in (make(s, {"h": 1.0}), make(s)):
                want = outcome(float_pair_gen_eval, e, x)
                assert bits(outcome(gen_eval, e, x)) == bits(want), (str(e), s)
            try:
                value, _ = float_pair_walk(e, s, 1.0)
            except (MonadicaError, OverflowError, ValueError):
                continue
            # where the pair walk has a value, eval_real has the same one
            values += 1
            assert bits(e.eval_real(s)) == bits(value), (str(e), s)
    assert values > 2000


ERRORS = [
    ("1/(x - x)", 1.0, "NotInvertible", "infinitesimals have no multiplicative inverse"),
    ("x^-2", 0.0, "NotInvertible", "infinitesimals have no multiplicative inverse"),
    ("log(x - 2)", 1.0, "OutOfDomain", "log needs a positive argument, got -1.0"),
    ("root(3, x)", -1.0, "OutOfDomain", "root needs a positive argument, got -1.0"),
    ("(x - 1)^0.5", 0.5, "OutOfDomain", "real power needs a positive base, got -0.5"),
    ("exp(exp(x))", 800.0, "OutOfDomain", "evaluation overflows at 800.0"),
    ("sin(x * x)", 1e200, "OutOfDomain", "evaluation overflows at 1e+200"),
    ("1/x", 1e-200, "NonFiniteInput", "the extension is not finite at shadow 1e-200"),
]


# the message is checked but not part of the test id
@pytest.mark.parametrize(
    "text, s, error, message",
    [pytest.param(*row, id="-".join(map(str, row[:3]))) for row in ERRORS],
)
def test_errors_are_typed(text, s, error, message):
    got = outcome(gen_eval, parse(text), make(s, {"h": 1.0}))
    assert type(got).__name__ == error
    assert str(got).startswith(message), str(got)


def test_lhs_is_evaluated_before_rhs():
    # both sides fail; the lhs error is the one raised
    with pytest.raises(OutOfDomain, match="log"):
        gen_eval(parse("log(x - 5) / (x - x)"), make(1.0, {"h": 1.0}))


def test_result_keeps_the_input_generator_order():
    x = make(0.5, {"e:2": 1.0, "h": -1.0, "e:1": 0.25})
    got = gen_eval(parse("sin(x) * exp(x) + 3"), x)
    assert list(got.dpart) == ["e:2", "h", "e:1"]
    assert gen_eval(parse("x - x"), x) == make(0.0)


def test_integer_constants_give_float_shadows():
    # trees and monad rules may hold ints; every result is built from float()
    x = make(1.0)
    f = NaturalExtension.on_interval(Const(2))
    pw = PiecewiseExtension((0.0,), (Const(1), Const(3)), (MonadRule(2, 1),))
    for got in (
        gen_eval(Add(Const(2), Const(3)), x),
        f.eval_at(x),
        f.eval_higher(1, x),
        pw.eval_at(make(0.0, {"h": 1.0})),
    ):
        assert type(got.shadow) is float, got
