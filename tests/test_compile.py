"""compile_real against the tree walk it must reproduce bit for bit."""

import copy
import dataclasses
import math
import pickle
import random
import re
import struct
import sys
import threading
from fractions import Fraction

import pytest

from monadica import expr
from monadica.calculus import (
    InverseExpr,
    NaturalExtension,
    _Nodes,
    _unit,
    gen_eval,
    inverse_extension,
)
from monadica.core import make
from monadica.expr import (
    Add,
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
    compose,
    differentiate,
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
    """A tree over every node type, with compositions; a quarter of the picks
    reuse an earlier subtree object, so trees share nodes, also with the
    subtrees a composition substitutes."""
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
            node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div, "compose": compose}[kind]
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


def derivatives(tree, order):
    """The tree and its derivatives up to the given order."""
    out = [tree]
    for _ in range(order):
        out.append(out[-1].deriv())
    return out


def test_compiled_trees_match_the_tree_walk_bit_for_bit():
    # InverseExpr states its rule in calculus, outside expr
    inverse = InverseExpr(NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0), X)
    seen_checks, values = set(), 0
    for seed in range(6):
        rng = random.Random(seed)
        for i in range(40):
            tree = random_tree(rng, 4, [], inverse)
            # compile_real's numbering merges most from order 2 on; every
            # fifth tree goes up to order 4, which keeps the test about 1 s
            for e in derivatives(tree, 4 if i % 5 == 0 else 1):
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


# (lo, w, units) of grids across zeros and negatives, far enough out that
# exp and negative powers overflow, and of tiny points beside zero
GRIDS = (
    (-2.0, 4.0, [i / 32 for i in range(33)]),
    (-800.0, 1600.0, [i / 16 for i in range(17)]),
    (0.0, 1e-200, [i / 8 for i in range(9)]),
)


def test_grid_kernels_match_the_scalar_kernels_bit_for_bit():
    # a kernel over a node table gives what the tree walk gives at each node
    inverse = InverseExpr(NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0), X)
    seen_checks, values, overflows = set(), 0, 0
    for seed in range(6):
        rng = random.Random(100 + seed)
        for _ in range(30):
            tree = random_tree(rng, 4, [], inverse)
            for e in derivatives(tree, 3):
                f = NaturalExtension(e, -math.inf, math.inf)

                def table(lo, w, units):
                    return f._sample(0, _Nodes(lo, w, units))

                for lo, w, units in GRIDS:
                    want = [outcome(e.eval_real, lo + w * u) for u in units]
                    first = next((i for i, o in enumerate(want) if o[0] == "error"), len(want))
                    # the values up to the first error, then that error
                    got = [("value", struct.pack("<d", v)) for v in table(lo, w, units[:first])]
                    assert got == want[:first], (str(e), lo, w)
                    values += first
                    if first < len(want):
                        assert outcome(lambda u: table(lo, w, u), units) == want[first], str(e)
                        message = want[first][2]
                        overflows += message.startswith("evaluation overflows at")
                        seen_checks.update(c for c in CHECKS if message.startswith(c))
    assert seen_checks == set(CHECKS)
    assert values > 20000 and overflows > 20


def test_kernels_match_the_tree_walk_on_the_benchmark_functions(higher_order_input):
    # compile_real numbers its values, so repeats merge most in the higher
    # derivatives; every value must keep its bits and every error its type
    # and message. The one kernel of each tree evaluates the 33 points one
    # at a time and as one node table, which must give the same values up
    # to the first error, then that error
    texts = higher_order_input["spec"]["functions"]
    points = [-2.0 + i / 8.0 for i in range(33)]
    assert points == [-2.0 + 4.0 * u for u in _unit(32)]
    checked = tables = 0
    for text in texts:
        tree = parse(text)
        for k in range(5):
            e = differentiate(tree, k)
            # real_fn(0) and _sample(0, ...) call the one kernel of e
            f = NaturalExtension(e, -math.inf, math.inf)
            want = [outcome(e.eval_real, x) for x in points]
            for x, w in zip(points, want):
                assert outcome(f.real_fn(0), x) == w, (text, k, x)
                checked += 1

            def table(units):
                return f._sample(0, _Nodes(-2.0, 4.0, units))

            # over the table: the values before the first error, then that error
            first = next((i for i, w in enumerate(want) if w[0] == "error"), len(want))
            got = [("value", struct.pack("<d", v)) for v in table(_unit(32)[:first])]
            if first < len(want):
                got.append(outcome(table, _unit(32)))
            assert got == want[: first + 1], (text, k)
            tables += 1
    assert texts and checked == len(texts) * 5 * 33 and tables == len(texts) * 5, (checked, tables)


def test_a_grid_of_no_points_is_empty_and_a_deep_tree_compiles():
    assert NaturalExtension(parse("log(x)"), -1.0, 1.0)._sample(0, _Nodes(-1.0, 1.0, [])) == []
    deep, want = X, 0.5
    for _ in range(5000):
        deep, want = Sin(deep), math.sin(want)
    out = []
    expr._Emit().build(deep)(0.5, 0.0, (0.0,), out)
    assert out == [want] and compile_real(deep)(0.5) == want


def test_each_kernel_has_a_file_name_of_its_own():
    # profiles key functions by file, line and name, and every kernel is a
    # function named compiled at line 1, so only the file name parts them
    tree = parse("exp(sin(x))*x^3")
    f = NaturalExtension(tree, -math.inf, math.inf)
    kernels = [compile_real(tree).args[0], compile_real(tree).args[0], f.real_fn(0).args[0]]
    names = [k.__code__.co_filename for k in kernels]
    assert len(set(names)) == 3, names
    assert all(re.fullmatch(r"<kernel \d+>", n) for n in names), names


# the one-node table x + 1.0 * -0.0 must be x itself at every float
SPECIAL = (-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan)


def nan_blind(result):
    """An outcome with every NaN value the same: which NaN a sum of two NaNs
    gives depends on whether CPython has specialised the kernel's addition
    yet (the tree walk adds with operator.add), so a NaN's sign is no contract."""
    if result[0] == "value" and math.isnan(struct.unpack("<d", result[1])[0]):
        return "value", "nan"
    return result


def test_one_point_calls_match_the_tree_walk_at_signed_zeros_infinities_and_nans():
    # one NaN operand keeps its bits, so these match bit for bit
    for e in (X, Neg(X), Mul(X, Const(-0.0)), Sin(X)):
        for x in SPECIAL:
            assert outcome(compile_real(e), x) == outcome(e.eval_real, x), (str(e), x)
    assert [outcome(compile_real(X), x) for x in SPECIAL] == [
        ("value", struct.pack("<d", x)) for x in SPECIAL
    ]
    inverse = InverseExpr(NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0), X)
    rng = random.Random(28)
    kinds = set()
    for tree in [EVERY_TYPE] + [random_tree(rng, 4, [], inverse) for _ in range(60)]:
        for e in derivatives(tree, 1):
            fn = compile_real(e)
            for x in SPECIAL:
                want = nan_blind(outcome(e.eval_real, x))
                assert nan_blind(outcome(fn, x)) == want, (str(e), x)
                kinds.add(want[1] if want == ("value", "nan") else want[0])
    assert kinds == {"value", "nan", "error"}


class Counted(Expr):
    """arg + 1, counting its evaluations in calls[0], to observe how often a
    node is evaluated.  Nodes are immutable, so the count lives in a list."""

    __slots__ = ("calls", "arg")

    def rule(self, arith, x, a):
        return arith.lift(self.plus_one, a, lambda a, v: 1.0)

    def plus_one(self, xi):
        self.calls[0] += 1
        return xi + 1.0


def test_shared_nodes_are_evaluated_once_per_binding():
    # a walk binds x once: c and the c over shared that composing builds
    # are two nodes, each evaluated once, though the tree unfolded holds c
    # eight times and c2 three times
    c = Counted([0], X)
    shared = Mul(c, c)
    e = Add(shared, compose(Add(shared, c), shared))
    c2 = Counted(c.calls, shared)
    assert e == Add(shared, Add(Mul(c2, c2), c2))
    want = e.eval_real(0.5)
    walked, c.calls[0] = c.calls[0], 0
    assert compile_real(e)(0.5) == want
    assert (walked, c.calls[0]) == (2, 2)
    # gen_eval runs the same rule, with the slope lift gives it
    assert gen_eval(Mul(c, X), make(0.5, {"h": 1.0})) == make(0.75, {"h": 2.0})


# differentiation builds equal subtrees again (sin's slope makes a cos(u)
# beside cos's own), which interning makes one node
SWELLING = parse("exp(sin(x))*x^3 + log(2+cos(x))/(1+x^2)")


def emitted(e):
    """The lines compile_real emits for e."""
    emit = expr._Emit()
    emit.build(e)
    return emit.lines


def test_emitted_kernels_repeat_no_operation_and_no_check():
    lines = emitted(expr.differentiate(SWELLING, 4))
    rhs = [line.split(" = ", 1)[1] for line in lines if not line.startswith("if ")]
    checks = [line for line in lines if line.startswith("if ")]
    assert checks and len(set(rhs)) == len(rhs) and len(set(checks)) == len(checks)


def test_a_composite_is_emitted_once_with_its_equal_subtree():
    # substitution builds sin(exp(x)) as the node the other operand holds,
    # so the kernel computes it once
    e = Add(compose(Sin(X), Exp(X)), Sin(Exp(X)))
    assert e == Add(Sin(Exp(X)), Sin(Exp(X)))
    assert sum(line.count("sin(") for line in emitted(e)) == 1


def test_emitted_line_counts_per_derivative_order():
    # a deterministic work count
    counts = [len(emitted(expr.differentiate(SWELLING, k))) for k in range(5)]
    assert counts == [13, 24, 41, 65, 98]


def test_signed_zero_constants_keep_their_own_names():
    # keyed by value, the two constants would merge and give -0.0
    e = Add(Mul(Const(-0.0), X), Mul(Const(0.0), X))
    want = ("value", struct.pack("<d", 0.0))
    assert outcome(compile_real(e), 1.0) == outcome(e.eval_real, 1.0) == want


NODES = {
    cls
    for cls in vars(expr).values()
    if isinstance(cls, type) and issubclass(cls, Expr) and cls is not Expr
}


def test_every_node_type_has_its_own_rule():
    assert len(NODES) == 14
    for cls in NODES | {InverseExpr}:
        assert "rule" in vars(cls), cls.__name__
    with pytest.raises(NotImplementedError):
        Expr().eval_real(0.5)


# with its derivative, a tree of every node type
EVERY_TYPE = compose(parse("root(3, x) / (log(x) - pow(0.5, x)) + exp(x)^-2 * cos(-x)"), Sin(X))


def test_nodes_hold_only_operands_and_constants():
    # a node declares its operands and constants once, as its __slots__
    for cls in NODES | {InverseExpr}:
        assert not dataclasses.is_dataclass(cls), cls.__name__
        assert "__slots__" in vars(cls), cls.__name__
    # its one derived slot, the last inversion, is no field
    assert InverseExpr._fields == ("fn", "arg")
    assert InverseExpr.__slots__ == ("fn", "arg", "_last")
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
                       (EVERY_TYPE, "lhs")]:
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
