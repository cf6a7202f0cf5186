"""parse, one precedence-climbing loop, against the recursive-descent parser
it replaced, kept here as the oracle; parse's error boundary, which turns
text nested too deep for Python's recursion limit into a DomainError; and
trees of that depth, which every walk takes."""

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadica.calculus import gen_eval
from monadica.cli import main
from monadica.core import GeneralizedReal
from monadica.errors import DomainError
from monadica.expr import (
    TOO_DEEP,
    Const,
    Cos,
    Div,
    Exp,
    Expr,
    Log,
    PowReal,
    Root,
    Sin,
    Var,
    add,
    compile_real,
    differentiate,
    iter_nodes,
    mul,
    neg,
    parse,
    pow_int,
    sub,
)


# -- the replaced parser, verbatim -----------------------------------------------


def _const_value(e: Expr) -> float | None:
    return e.value if isinstance(e, Const) else None


# where no token follows the spaces, "bad" takes the rest of the text
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^,]))|(?P<bad>\s*\S[\s\S]*)"
)

_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "root", "pow")


class _Parser:
    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, str] | None]:
        """The (kind, text) tokens, ended by a None sentinel."""
        tokens: list = [(m.lastgroup, m[m.lastindex]) for m in _TOKEN_RE.finditer(text)]
        if tokens and tokens[-1][0] == "bad":
            raise DomainError(f"bad expression syntax near {tokens[-1][1]!r}")
        tokens.append(None)
        return tokens

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        if tok is None:
            raise DomainError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, op: str) -> None:
        tok = self.next()
        if tok != ("op", op):
            raise DomainError(f"expected {op!r}, got {tok[1]!r}")

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek() is not None:
            raise DomainError(f"trailing input at {self.peek()[1]!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.next()[1]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.next()[1]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        # unary minus binds looser than the power: -x^2 is -(x^2)
        if self.peek() == ("op", "-"):
            self.next()
            return neg(self.factor())
        if self.peek() == ("op", "+"):
            self.next()
            return self.factor()
        e = self.primary()
        if self.peek() in (("op", "^"), ("op", "**")):
            self.next()
            exponent = self.factor()  # right-associative
            c = _const_value(exponent)
            if c is None:
                raise DomainError("exponents must be constants")
            if c == int(c):
                return pow_int(e, int(c))
            return PowReal(e, c)
        return e

    def primary(self) -> Expr:
        kind, text = self.next()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise DomainError(f"numeric literal {text} overflows to infinity")
            return Const(value)
        if kind == "name":
            if text == "x":
                return Var()
            if text == "pi":
                return Const(math.pi)
            if text in _FUNCTIONS:
                self.expect("(")
                if text in ("root", "pow"):
                    first = self.expr()
                    c = _const_value(first)
                    if c is None:
                        raise DomainError(f"first argument of {text} must be constant")
                    self.expect(",")
                    arg = self.expr()
                    self.expect(")")
                    if text == "root":
                        if c != int(c) or int(c) < 2:
                            raise DomainError("root degree must be an integer > 1")
                        return Root(arg, int(c))
                    return PowReal(arg, c)
                arg = self.expr()
                self.expect(")")
                return {
                    "exp": Exp,
                    "log": Log,
                    "sin": Sin,
                    "cos": Cos,
                    "sqrt": lambda a: Root(a, 2),
                }[text](arg)
            raise DomainError(f"unknown name {text!r} (the variable is 'x')")
        if text == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise DomainError(f"unexpected token {text!r}")


def old_parse(text: str) -> Expr:
    return _Parser(text).parse()


# -- the two parsers agree -------------------------------------------------------

SEEDS = (7001, 7002, 7003)
EDITS_PER_TEXT = 10
# characters the single-character edits insert or substitute
EDIT_ALPHABET = "0123456789.eE+-*/^(), \txpisnqrtcolgw_$"
EDGE_TEXTS = (
    "x^2^3", "x^2^1", "x^2^0", "x^0.5^1", "2^3", "-x^2", "- -x", "+-x", "x^-1", "x**-2",
    "(-x)^2", "x^-x", "2^-x^2", "root(2, x", "pow(0.5, x", "root(2 x)", "sin x", "x(2)",
    "pi(x)", ".5.", ". x", "x . ", "  $", "x \t#", "x $ ", "1e5x", "1ex", "2.", "1.e5",
    "\u0663*x", "x\u00a0+ 1", "x\x1c", "inf", "nan", "_", "x_1", "sqrt(x)^0.5", "exp(x)(x)",
)


def outcome(parser, text):
    try:
        return repr(parser(text))
    except DomainError as exc:
        return f"DomainError: {exc}"


@pytest.fixture(scope="module")
def corpus(bench_gen):
    """Seeded renderings of both benchmark pools, each with single-character
    edits.  The higher-order functions are drawn as gen's higher-order pool
    draws its candidates and inverse functions, without the derivative-size
    strata that make building that pool take seconds."""
    texts = list(EDGE_TEXTS)
    for seed in SEEDS:
        texts += bench_gen.make_inputs("first-order", seed, 1)["spec"]["functions"]
        rng = random.Random(f"higher-order:{seed}")
        texts += [bench_gen.render(bench_gen.monotone_function(rng, n)) for n in range(4, 12)]
        for _ in range(40):
            t = bench_gen._function(rng, rng.randint(3, 10), bench_gen._slope_varies)
            texts.append(bench_gen.render(t))
    rng = random.Random(13)
    for text in list(texts):
        for _ in range(EDITS_PER_TEXT):
            k, c = rng.randrange(len(text) + 1), rng.choice(EDIT_ALPHABET)
            texts.append(rng.choice((
                text[:k] + c + text[k + 1:], text[:k] + c + text[k:], text[:k] + text[k + 1:],
            )))
    return texts


def test_corpus_size(corpus):
    assert len(corpus) >= 3000
    accepted = sum(not outcome(parse, t).startswith("DomainError") for t in corpus)
    assert 0.2 < accepted / len(corpus) < 0.8  # both outcomes well represented


def test_same_tree_or_same_error_as_the_old_parser(corpus):
    pairs = [(t, outcome(old_parse, t), outcome(parse, t)) for t in corpus]
    mismatches = [pair for pair in pairs if pair[1] != pair[2]]
    assert not mismatches, mismatches[:5]


# -- the error boundary ----------------------------------------------------------

# the grammar's alphabet: digits, .eE, x, pi, function names, operators, spaces
_PIECES = tuple("0123456789.eE") + (
    "x", "pi", "exp", "log", "sin", "cos", "sqrt", "root", "pow",
    "+", "-", "*", "/", "^", "**", "(", ")", ",", " ",
)
_SOUP = st.lists(st.sampled_from(_PIECES), max_size=20).map("".join)


def _joined(template):
    return lambda parts: template.format(*parts)


# exponents and the first arguments of root and pow are constant expressions,
# whose folding can overflow: 1e308*10 is inf, and inf - inf is nan
_CONSTANT = st.recursive(
    st.one_of(
        st.sampled_from(("2", "0.5", ".5e1", "pi")),
        st.floats(min_value=0.0, allow_infinity=False).map(repr),
    ),
    lambda c: st.tuples(c, st.sampled_from(("+", "-", "*")), c).map(_joined("({}{}{})")),
    max_leaves=4,
)
_GRAMMATICAL = st.recursive(
    st.sampled_from(("x", "pi", "0", "2", "0.5")),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from(("+", "-", "*", "/")), e).map(_joined("({}{}{})")),
        st.tuples(e, st.sampled_from(("^", "**")), _CONSTANT).map(_joined("{}{}{}")),
        st.tuples(st.sampled_from(("exp", "log", "sin", "cos", "sqrt", "-", "")), e).map(
            _joined("{}({})")
        ),
        st.tuples(st.sampled_from(("root", "pow")), _CONSTANT, e).map(_joined("{}({}, {})")),
    ),
    max_leaves=6,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(_SOUP, _GRAMMATICAL))
def test_parse_returns_a_tree_with_finite_parameters_or_raises_domain_error(text):
    try:
        e = parse(text)
    except DomainError:
        return
    assert isinstance(e, Expr)
    for node in iter_nodes(e):
        for name in ("exponent", "degree"):
            assert math.isfinite(getattr(node, name, 0.0)), (text, node)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x^(1e308*10)", "exponents must be finite"),
        ("x^(1e308*10-1e308*10)", "exponents must be finite"),
        ("x^(0*(1e308*10))", "exponents must be finite"),
        ("x**-(1e308*10)", "exponents must be finite"),
        ("root(1e308*10, x)", "root degree must be an integer > 1"),
        ("root(0*(1e308*10), x)", "root degree must be an integer > 1"),
        ("pow(1e308*10, x)", "first argument of pow must be finite"),
        ("pow(1e308*10-1e308*10, x)", "first argument of pow must be finite"),
    ],
)
def test_non_finite_folded_constants_are_domain_errors(capsys, text, message):
    with pytest.raises(DomainError) as info:
        parse(text)
    assert str(info.value) == message
    code = main(["eval", text, "--at", '{"shadow":0.5,"d":{}}'])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {"error": message}


# -- nesting deeper than the recursion limit -------------------------------------

LONG_SUM = "+".join(["x"] * 5000)
NESTED_SIN = "sin(" * 1000 + "x" + ")" * 1000


def nested_sin(depth: int) -> Expr:
    e = Var()
    for _ in range(depth):
        e = Sin(e)
    return e


# the nested text is too deep for the parser; the sum parses in a loop, and
# its tree, 5000 levels deep, is walked through its plan
@pytest.mark.parametrize(
    "text, want",
    [(LONG_SUM, None), (NESTED_SIN, {"error": TOO_DEEP})],
    ids=["5000-term sum", "1000 nested sin"],
)
@pytest.mark.parametrize(
    "argv, answer",
    [
        (["eval", "{}", "--at", '{"shadow":0.5,"d":{}}'], {"shadow": 2500.0, "d": {}}),
        (["diff", "{}", "--at", '{"shadow":0.5,"d":{}}'], 5000.0),
        (["taylor", "--center", "0.3", "--order", "2", "--at", '{"shadow":0.5,"d":{}}', "--", "{}"], None),
    ],
    ids=["eval", "diff", "taylor"],
)
def test_cli_reports_deep_nesting_as_one_json_error(capsys, argv, answer, text, want):
    code = main([text if a == "{}" else a for a in argv])
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    got = json.loads(out)
    if want is not None:
        assert code == 1 and got == want
    elif answer is not None:
        assert code == 0 and got == answer
    else:  # the sum is 5000 x, so its Taylor polynomial of order 2 is exact
        assert code == 0 and got["partial_sum"] == pytest.approx(2500.0, rel=1e-12)


def test_only_parse_refuses_a_deep_tree():
    with pytest.raises(DomainError, match=TOO_DEEP):
        parse("(" * 1000 + "x" + ")" * 1000)
    deep, value, slope = Var(), 0.5, 1.0
    for _ in range(5000):
        deep, value, slope = Sin(deep), math.sin(value), math.cos(value) * slope
    assert deep.eval_real(0.5) == value and compile_real(deep)(0.5) == value
    assert gen_eval(deep, 0.5) == GeneralizedReal(value)
    assert differentiate(deep).eval_real(0.5) == pytest.approx(slope, rel=1e-12)
    # parse itself needs no stack for a long left-associative chain
    assert parse(LONG_SUM).lhs.rhs == Var()


def test_iter_nodes_walks_parents_first_without_recursion():
    e = parse("sin(x) + 2*exp(x)")
    assert [type(n).__name__ for n in iter_nodes(e)] == ["Add", "Sin", "Var", "Mul", "Const", "Exp", "Var"]
    assert sum(1 for _ in iter_nodes(nested_sin(5000))) == 5001


@pytest.mark.parametrize("text", [123, b"x", None, 1.5, ["x"]], ids=repr)
def test_parse_refuses_a_non_string(text):
    with pytest.raises(DomainError) as info:
        parse(text)
    assert str(info.value) == f"an expression must be text, not {text!r}"
