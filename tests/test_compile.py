"""compile_real against the tree walk it must reproduce bit for bit."""

import copy
import dataclasses
import math
import pickle
import random
import struct
import sys
import threading
from fractions import Fraction

import pytest

from monadica import expr
from monadica.calculus import InverseExpr, NaturalExtension, gen_eval, inverse_extension
from monadica.core import make
from monadica.expr import (
    Add,
    Compose,
    Const,
    Cos,
    Div,
    Exp,
    Expr,
    Log,
    Mul,
    Neg,
    PowInt,
    PowReal,
    Root,
    Sin,
    Sub,
    Var,
    compile_real,
    parse,
)

X = Var()
KINDS = (
    "add", "sub", "mul", "div", "neg", "powint", "powreal", "root",
    "exp", "log", "sin", "cos", "compose",
)
# zeros, negatives, and magnitudes that overflow exp and negative powers
POINTS = (-800.0, -2.0, -1.0, -0.5, 0.0, 1e-200, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 800.0)
CHECKS = (
    "division by zero at",
    "zero base with negative exponent at",
    "real power needs a positive base",
    "root needs a positive argument",
    "log needs a positive argument",
)


def random_tree(rng, depth, pool, leaf):
    """A tree over every node type; a quarter of the picks reuse an earlier
    subtree object, so trees share nodes, also across Compose scopes."""
    if pool and rng.random() < 0.25:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        t = X if r < 0.5 else leaf if r > 0.9 else Const(rng.choice((0.0, 1.0, -1.0, 0.5, 2.5, -3.0)))
    else:
        kind = rng.choice(KINDS)

        def sub():
            return random_tree(rng, depth - 1, pool, leaf)

        if kind in ("add", "sub", "mul", "div", "compose"):
            node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div, "compose": Compose}[kind]
            t = node(sub(), sub())
        elif kind == "powint":
            t = PowInt(sub(), rng.choice((-3, -2, -1, 0, 1, 2, 5)))
        elif kind == "powreal":
            t = PowReal(sub(), rng.choice((0.5, -1.5, 2.25, 1.0 / 3.0)))
        elif kind == "root":
            t = Root(sub(), rng.choice((2, 3, 5)))
        else:
            t = {"neg": Neg, "exp": Exp, "log": Log, "sin": Sin, "cos": Cos}[kind](sub())
    pool.append(t)
    return t


def outcome(fn, x):
    try:
        return "value", struct.pack("<d", fn(x))
    except Exception as exc:  # the error itself is what gets compared
        return "error", type(exc), str(exc)


def test_compiled_trees_match_the_tree_walk_bit_for_bit():
    # InverseExpr states its rule in calculus, outside expr
    inverse = InverseExpr(NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0))
    seen_checks, values = set(), 0
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(40):
            tree = random_tree(rng, 4, [], inverse)
            for e in (tree, tree.deriv()):
                fn = compile_real(e)
                for x in POINTS:
                    want = outcome(e.eval_real, x)
                    assert outcome(fn, x) == want, (str(e), x)
                    if want[0] == "value":
                        values += 1
                    else:
                        seen_checks.update(c for c in CHECKS if want[2].startswith(c))
    assert seen_checks == set(CHECKS)
    assert values > 1000


class Counted(Expr):
    """x + 1, counting its evaluations in calls[0], to observe how often a
    node is evaluated.  Nodes are immutable, so the count lives in a list."""

    __slots__ = ("calls",)

    def rule(self, arith, x):
        return arith.lift(self.plus_one, x, lambda a, v: 1.0)

    def plus_one(self, xi):
        self.calls[0] += 1
        return xi + 1.0


def test_shared_nodes_are_evaluated_once_per_binding():
    c = Counted([0])
    shared = Mul(c, c)
    e = Add(shared, Compose(Add(shared, c), shared))
    want = e.eval_real(0.5)
    walked, c.calls[0] = c.calls[0], 0
    assert compile_real(e)(0.5) == want
    # x-scope: c once; inner binding of the Compose: c once
    assert (walked, c.calls[0]) == (7, 2)
    # gen_eval runs the same rule, with the slope lift gives it
    assert gen_eval(Mul(c, X), make(0.5, {"h": 1.0})) == make(0.75, {"h": 2.0})


NODES = {
    cls
    for cls in vars(expr).values()
    if isinstance(cls, type) and issubclass(cls, Expr) and cls is not Expr
}


def test_every_node_type_has_its_own_rule():
    assert len(NODES) == 15
    for cls in NODES | {InverseExpr}:
        assert "rule" in vars(cls), cls.__name__
    with pytest.raises(NotImplementedError):
        Expr().eval_real(0.5)


# with its derivative, a tree of every node type
EVERY_TYPE = Compose(parse("root(3, x) / (log(x) - pow(0.5, x)) + exp(x)^-2 * cos(-x)"), Sin(X))


def test_nodes_hold_only_operands_and_constants():
    # a node declares its operands and constants once, as its __slots__
    for cls in NODES | {InverseExpr}:
        assert not dataclasses.is_dataclass(cls), cls.__name__
        assert "__slots__" in vars(cls), cls.__name__
    # its one derived slot, the last inversion, is no field
    assert InverseExpr._fields == ("fn",)
    assert InverseExpr.__slots__ == ("fn", "_last")
    # and the trees that parsing and differentiation build, of every type,
    # hold nothing else
    nodes = [n for tree in (EVERY_TYPE, EVERY_TYPE.deriv()) for n in expr.iter_nodes(tree)]
    assert {type(n) for n in nodes} == NODES
    for node in nodes:
        assert not hasattr(node, "__dict__"), node
        for name in node.__slots__:
            value = getattr(node, name)
            assert isinstance(value, (Expr, int, float)), (node, value)


@pytest.mark.parametrize(
    "round_trip",
    [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_trees_pickle_and_copy_to_equal_trees(round_trip):
    for tree in (EVERY_TYPE, EVERY_TYPE.deriv()):
        got = round_trip(tree)
        assert type(got) is type(tree)
        assert got == tree and repr(got) == repr(tree) and hash(got) == hash(tree)
        assert got.eval_real(0.7) == tree.eval_real(0.7)


def test_nodes_are_immutable():
    for node in expr.iter_nodes(EVERY_TYPE.deriv()):
        with pytest.raises(AttributeError):
            node.extra = X
    for node, name in [(Const(1.0), "value"), (Add(X, X), "lhs"), (Neg(X), "arg"),
                       (PowInt(X, 2), "exponent"), (Root(X, 3), "degree"),
                       (EVERY_TYPE, "inner")]:
        with pytest.raises(AttributeError):
            setattr(node, name, X)
        with pytest.raises(AttributeError):
            delattr(node, name)


def test_an_inverse_tree_deep_copies():
    g = inverse_extension(NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0))
    for tree in (g.expr, g.expr.deriv()):
        got = copy.deepcopy(tree)
        assert got == tree and repr(got) == repr(tree) and hash(got) == hash(tree)
        assert got.eval_real(1.5) == tree.eval_real(1.5)


def test_constants_are_bound_not_printed():
    # none of these survives being printed into source as its repr
    for value in (math.inf, -math.nan, Fraction(1, 3)):
        e = Mul(Const(value), X)
        assert outcome(compile_real(e), 3.0) == outcome(e.eval_real, 3.0)


def test_deriv_exprs_returns_the_same_trees_on_repeated_calls():
    f = NaturalExtension.on_interval(parse("exp(sin(x)) * x^3"), -2.0, 2.0)
    first = f.deriv_exprs(3)
    again = f.deriv_exprs(4)
    assert first[1] is f.deriv
    assert all(a is b for a, b in zip(first, again))
    assert f.deriv_exprs(0) == [f.expr]


def test_concurrent_callers_get_every_tree_at_its_order():
    reference = [parse("exp(sin(x)) * x^3")]
    for _ in range(5):
        reference.append(reference[-1].deriv())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            f = NaturalExtension.on_interval(reference[0], -1.0, 1.0)
            got = {}
            threads = [
                threading.Thread(target=lambda k=k: got.setdefault(k, f.deriv_exprs(k)))
                for k in (2, 3, 4, 5, 4, 3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            for k, trees in got.items():
                assert trees == reference[: k + 1], k
    finally:
        sys.setswitchinterval(interval)
