"""Expression trees for real functions of one variable.

Nodes cover the elementary functions used throughout the library.  A node
is an immutable record (``core.Record``) whose fields, its ``__slots__``, are
only its operand subtrees and int or float constants; the interval on which
a function is valid belongs to its natural extension
(``calculus.NaturalExtension``), not to its nodes.  Nodes are interned:
equal nodes are one object, compared and hashed by identity.  Each node
type has one ``rule`` for its value from its operands' values, checks
included, which floats (``eval_real``), emitted code (``compile_real``),
(value, slope) pairs (``gen_eval``) and text (``str``) all run; the pairs
state each derivative rule once, and run over trees they differentiate
symbolically (``differentiate``), folding constants and nothing more.  One
walk without recursion runs them all (``Arithmetic.walk``), and binds the
variable once; a composite is built by substitution (``compose``), out
of the same shared nodes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from typing import Callable

from . import core
from .errors import DomainError, NotDifferentiable, NotInvertible, OutOfDomain

#: The DomainError message of parse and repr, the two entry points that recurse.
TOO_DEEP = "expression nests too deeply"


class Expr(core.Record):
    """Base class of the nodes.  A node is an interned ``core.Record`` whose
    fields are its operands and constants, declared once as its ``__slots__``:
    constructing a node equal to a live one returns that one."""

    __slots__ = ("__weakref__", "_plan")
    _interned = True

    def eval_real(self, xi: float) -> float:
        """The value at a real point.  A float operation that overflows
        raises OutOfDomain, like any other point where the tree has no value;
        so does sin or cos of an intermediate that overflowed to infinity
        (a ValueError in math).  Each node is walked once, so a
        derivative's shared subtrees are computed once."""
        try:
            return _Float().walk(self, xi)
        except (OverflowError, ValueError) as exc:
            raise OutOfDomain(f"evaluation overflows at {xi!r}") from exc

    def rule(self, arith: "Arithmetic", x, *operands):
        """The value under arith, x bound, from its (at most two) operands' values."""
        raise NotImplementedError

    def deriv(self) -> "Expr":
        """The symbolic derivative; see ``differentiate``."""
        return differentiate(self)

    def __str__(self):
        """Infix text that ``parse`` reads back (a lifted node prints its
        own); each distinct node is printed once."""
        return _Show().walk(self, "x")

    def __repr__(self):
        try:
            return super().__repr__()
        except RecursionError as exc:
            raise DomainError(TOO_DEEP) from exc

    def __reduce__(self):
        """The node's table (see ``_table``), which has no nesting, so a
        tree of any depth pickles; unpickling builds it through the
        interning constructors, so it gives this node."""
        return _built, (_table(self),)

    # operator sugar, mirroring how the trees are written in tests
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, m):
        if type(m) is int:
            return pow_int(self, m)
        if isinstance(m, float):
            return PowReal(self, m)
        return NotImplemented


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(core._real(value, "constant"))


class Const(Expr):
    __slots__ = ("value",)

    def rule(self, arith, x):
        return arith.const(self.value)


class Var(Expr):
    __slots__ = ()

    def rule(self, arith, x):
        return x


class Add(Expr):
    __slots__ = ("lhs", "rhs")

    def rule(self, arith, x, a, b):
        return arith.add(a, b)


class Sub(Expr):
    __slots__ = ("lhs", "rhs")

    def rule(self, arith, x, a, b):
        return arith.sub(a, b)


class Mul(Expr):
    __slots__ = ("lhs", "rhs")

    def rule(self, arith, x, a, b):
        return arith.mul(a, b)


class Div(Expr):
    """Quotient; valid where the denominator does not vanish."""

    __slots__ = ("lhs", "rhs")

    def rule(self, arith, x, a, b):
        arith.nonzero(b, "division by zero at {!r}", x)
        return arith.div(a, b)


class Neg(Expr):
    __slots__ = ("arg",)

    def rule(self, arith, x, a):
        return arith.neg(a)


class PowInt(Expr):
    __slots__ = ("base", "exponent")

    def rule(self, arith, x, b):
        if self.exponent < 0:
            arith.nonzero(b, "zero base with negative exponent at {!r}", x)
        return arith.pow_int(b, self.exponent)


class PowReal(Expr):
    """base**alpha for a fixed real alpha; valid on positive bases."""

    __slots__ = ("base", "exponent")

    def rule(self, arith, x, b):
        arith.positive(b, "real power needs a positive base, got {!r}")
        return arith.pow_real(b, self.exponent)


class Root(Expr):
    """Positive m-th root (m > 1); valid on positive arguments."""

    __slots__ = ("base", "degree")

    def rule(self, arith, x, b):
        arith.positive(b, "root needs a positive argument, got {!r}")
        return arith.root(b, self.degree)


class Exp(Expr):
    __slots__ = ("arg",)

    def rule(self, arith, x, a):
        return arith.exp(a)


class Log(Expr):
    """Natural logarithm; valid on positive arguments."""

    __slots__ = ("arg",)

    def rule(self, arith, x, a):
        arith.positive(a, "log needs a positive argument, got {!r}")
        return arith.log(a)


class Sin(Expr):
    __slots__ = ("arg",)

    def rule(self, arith, x, a):
        return arith.sin(a)


class Cos(Expr):
    __slots__ = ("arg",)

    def rule(self, arith, x, a):
        return arith.cos(a)


# -- arithmetics -------------------------------------------------------------------


class Arithmetic:
    """One kind of value and the operations rules use on it: const, add,
    sub, mul, div, neg, pow_int, pow_real, root, exp, log, sin, cos; the
    checks ``nonzero(a, message, shown)`` and ``positive(a, message)``; and
    ``lift(fn, a, slope)``: fn(a), with derivative factor slope(a, fn(a)),
    for a node computed by a Python function, fn a method of the node; over
    trees the node's ``tangent(a)`` gives the node over a and that factor."""

    def walk(self, e: Expr, x):
        """The value of e with the variable bound to x: each rule of e's plan in
        turn, given its operands' values, which then stay in ``memo``."""
        entries, i, j = _plan(e)
        values = self.memo = []
        append = values.append
        for rule, a, b in entries:
            if b is not None:
                append(rule(self, x, values[a], values[b]))
            elif a is not None:
                append(rule(self, x, values[a]))
            else:
                append(rule(self, x))
        if j is not None:  # e itself, which its plan leaves out
            append(e.rule(self, x, values[i], values[j]))
        elif i is not None:
            append(e.rule(self, x, values[i]))
        else:
            append(e.rule(self, x))
        return values[-1]


def _plan(e: Expr) -> tuple[list, int | None, int | None]:
    """e's plan, built once without recursion and kept on e: its distinct
    descendants as a recursive walk finishes them, each as (bound rule, operand
    positions or None), then e's positions; e is left out, to hold no cycle."""
    if (plan := getattr(e, "_plan", None)) is not None:
        return plan
    at, entries, stack = {}, [], [e]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node, lhs, rhs), with its operands done
            at[node[0]] = len(entries)
            entries.append((node[0].rule, at.get(node[1]), at.get(node[2])))
        elif node is not None and node not in at:
            lhs = rhs = None
            for v in node._values():
                if isinstance(v, Expr):
                    lhs, rhs = (v, None) if lhs is None else (lhs, v)
            stack += (node, lhs, rhs), rhs, lhs  # the left operand on top, so first
    _, i, j = entries.pop()  # e's own, the last to finish
    object.__setattr__(e, "_plan", (entries, i, j))
    return e._plan


class _Float(Arithmetic):
    """Floats, with Python's own operations."""

    # builtins, so an instance lookup returns them unbound
    add, sub, mul, div = operator.add, operator.sub, operator.mul, operator.truediv
    neg, exp, log, sin, cos = operator.neg, math.exp, math.log, math.sin, math.cos
    pow_int = pow_real = operator.pow

    def const(self, c):
        return c

    @staticmethod
    def root(a, m):
        return math.sqrt(a) if m == 2 else a ** (1.0 / m)

    def nonzero(self, a, message, shown):
        if a == 0.0:
            raise OutOfDomain(message.format(shown))

    def positive(self, a, message):
        if a <= 0.0:
            raise OutOfDomain(message.format(a))

    def lift(self, fn, a, slope):
        return fn(a)


def gen_eval(e: Expr, x) -> core.GeneralizedReal:
    """Evaluate a tree over the generalized reals.

    Products of infinitesimals vanish, so the result is f(s) + f'(s) * dx
    for x = s + dx.  One walk runs the node rules over (value, slope) float
    pairs and builds a single value at the end; the value is the float
    ``e.eval_real(s)`` computes.  A zero denominator raises NotInvertible,
    a point outside a node's domain or an overflow raises OutOfDomain with
    ``eval_real``'s message, and a non-finite result raises NonFiniteInput."""
    x = core.as_generalized(x)
    try:
        value, slope = _Pair().walk(e, (x.shadow, 1.0))
    except (OverflowError, ValueError) as exc:  # as in Expr.eval_real
        raise OutOfDomain(f"evaluation overflows at {x}") from exc
    return core._tangent(x, value, slope)


class _Pair(Arithmetic):
    """(value, slope) float pairs: a value and its derivative along x, with
    products of infinitesimals dropped.  These are the derivative rules,
    each stated once; they use only ``+ - * / ** neg`` and the five hooks
    below, so ``_Tree`` runs them over trees."""

    _exp, _log, _sin, _cos = _Float.exp, _Float.log, _Float.sin, _Float.cos
    _root = staticmethod(_Float.root)

    def const(self, c):
        return c, 0.0

    def add(self, p, q):
        return p[0] + q[0], p[1] + q[1]

    def sub(self, p, q):
        return p[0] - q[0], p[1] - q[1]

    def mul(self, p, q):
        (a, da), (b, db) = p, q
        return a * b, da * b + a * db

    def div(self, p, q):
        (a, da), (b, db) = p, q
        r = a / b
        # (da - r * db) / b, not (da * b - a * db) / b**2: b * b may underflow
        return r, (da - r * db) / b

    def neg(self, p):
        return -p[0], -p[1]

    def pow_int(self, p, m):
        a, da = p
        if m > 0:
            return a**m, m * a ** (m - 1) * da
        if m == 0:
            return a**m, 0.0
        r = a**m
        return r, m * (r / a) * da

    def pow_real(self, p, alpha):
        a, da = p
        r = a ** float(alpha)  # over trees an int would build a PowInt
        return r, alpha * (r / a) * da

    def root(self, p, m):
        a, da = p
        r = self._root(a, m)
        return r, r / (m * a) * da

    def exp(self, p):
        v = self._exp(p[0])
        return v, v * p[1]

    def log(self, p):
        return self._log(p[0]), p[1] / p[0]

    def sin(self, p):
        return self._sin(p[0]), self._cos(p[0]) * p[1]

    def cos(self, p):
        return self._cos(p[0]), -self._sin(p[0]) * p[1]

    def nonzero(self, p, message, shown):
        if p[0] == 0.0:
            raise NotInvertible("infinitesimals have no multiplicative inverse")

    def positive(self, p, message):
        if p[0] <= 0.0:
            raise OutOfDomain(message.format(p[0]))

    def lift(self, fn, p, slope):
        a, da = p
        v = fn(a)
        return v, slope(a, v) * da


class _Tree(_Pair):
    """(tree, slope) pairs: ``_Pair``'s rules over expression trees, whose
    operators are the folding constructors, so the slope is the symbolic
    derivative.  A slope stays a float while it is constant.  Each node is
    walked once, so shared subtrees are differentiated once and the
    derivative shares the function's subtrees."""

    _exp, _log, _sin, _cos, _root = Exp, Log, Sin, Cos, Root

    def const(self, c):
        return Const(c), 0.0

    def nonzero(self, *check):
        """Checks nothing: the nodes a tree or text is made of carry their own."""

    positive = nonzero

    def lift(self, fn, p, slope):
        # fn is opaque, so a lifted node states its own tangent: the node
        # over the walked operand and its slope there, as trees
        node, (a, da) = fn.__self__, p
        tangent = getattr(node, "tangent", None)
        if tangent is None:
            raise NotDifferentiable(f"{type(node).__name__} states no derivative")
        value, factor = tangent(a)
        return value, factor * da


# -- folding constructors ------------------------------------------------------


def _const_value(e: Expr) -> float | None:
    return e.value if isinstance(e, Const) else None


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_value(a), _const_value(b)
    if ca is not None and cb is not None:
        return Const(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return Mul(a, b)


def neg(a: Expr) -> Expr:
    ca = _const_value(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_int(base: Expr, m: int) -> Expr:
    if m == 0:
        return Const(1.0)
    if m == 1:
        return base
    return PowInt(base, m)


def compose(outer: Expr, inner: Expr) -> Expr:
    """outer with inner in place of the variable: outer's table rebuilt, each
    node by its own constructor over the nodes rebuilt for its operands.
    Nothing folds, so every domain check of outer stays, and a node equal
    to a live one is that one."""
    return _built(_table(outer), inner)


def _table(e: Expr) -> list[tuple]:
    """e as rows, one per node of its plan and then e: the node's class, its
    fields with each operand replaced by the operand's row, and the indexes
    of those fields."""
    entries, a, b = _plan(e)
    rows = []
    for rule, i, j in itertools.chain(entries, ((e.rule, a, b),)):
        node = rule.__self__
        fields, rows_of = node._values(), iter((i, j))
        at = tuple(k for k, v in enumerate(fields) if isinstance(v, Expr))
        fields = tuple(next(rows_of) if k in at else v for k, v in enumerate(fields))
        rows.append((type(node), fields, at))
    return rows


def _built(rows: list[tuple], inner: Expr | None = None) -> Expr:
    """The node of a table's last row, each row built in turn by its class
    over the nodes of its operands' rows; with inner given, a row of the
    variable gives inner."""
    nodes: list[Expr] = []
    for cls, fields, at in rows:
        fields = [nodes[v] if k in at else v for k, v in enumerate(fields)]
        nodes.append(inner if inner is not None and cls is Var else cls(*fields))
    return nodes[-1]


def iter_nodes(e: Expr):
    """The node and all its expression descendants, parents first, without
    recursion."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in reversed(node._values()) if isinstance(c, Expr))


class _Orders:
    """The derivative orders of a tree, each built on first use by the
    (tree, slope) pair walk of the order before it, and kept.  Nodes are
    interned, so a derivative equal to an earlier order's is that tree: once
    order k repeats order j, order n is order j + (n - j) mod (k - j), and
    no further walk runs."""

    __slots__ = ("_known",)

    def __init__(self, e: Expr) -> None:
        self._known = (e,), None  # the orders built, and the one order k repeats

    def __getitem__(self, n: int) -> Expr:
        trees, j = self._known
        if j is None and len(trees) <= n:
            # grown on a copy and stored in one assignment, so concurrent
            # readers never see a tree at the wrong order
            grown, seen = list(trees), {t: k for k, t in enumerate(trees)}
            while j is None and len(grown) <= n:
                d = _coerce(_Tree().walk(grown[-1], (Var(), 1.0))[1])
                j = seen.get(d)
                if j is None:
                    seen[d] = len(grown)
                    grown.append(d)
            trees = tuple(grown)
            self._known = trees, j
        return trees[n] if n < len(trees) else trees[j + (n - j) % (len(trees) - j)]


def differentiate(e: Expr, order: int = 1) -> Expr:
    """Symbolic derivative of the given order (order 0 returns e itself),
    read from a fresh ``_Orders``: one walk per order until an order repeats."""
    return _Orders(e)[core._count(order, "derivative order", 0)]


# -- compilation to straight-line code -------------------------------------------------


def compile_real(e: Expr) -> Callable[[float], float]:
    """Compile a tree into one straight-line Python function of one float.

    The function returns exactly what ``e.eval_real`` returns: both run the
    same rules, so every node does the same float operations in the same
    order (a quotient: numerator, denominator, then the zero check), and
    every domain check raises the same error with the same message, an
    overflow included.  A NaN stays a NaN, but the sign of a NaN made from
    NaN operands is not kept: CPython's specialised ``+`` can flip it once
    the kernel has warmed up.  Each node is assigned once; nodes are
    interned, so equal subtrees are one node and computed once.  A check is
    emitted once, and each constant gets one name (keyed by ``core._key``).
    The k-th derivative of ``exp(sin(x))*x^3 + log(2+cos(x))/(1+x^2)`` takes
    13, 24, 41, 65 and 98 lines at k = 0 to 4.  Dropping a repeated check
    changes no error: it already passed where it first occurred.  The lines
    run in one loop over a table of nodes (``_Emit.build``), so natural
    extensions sample a table in one call; this function is that kernel at
    one node.
    Compiling costs about 4 tree walks (that fourth derivative) to 60 (a
    single node), so ``eval_real`` remains the path for one-shot evaluation.
    """
    return functools.partial(_value_at, _Emit().build(e))


def _value_at(kernel: Callable, x: float) -> float:
    """The kernel at the one node x + 1.0 * -0.0, which is x bit for bit."""
    out: list[float] = []
    try:
        kernel(x, 1.0, (-0.0,), out)
    except (OverflowError, ValueError) as exc:
        raise OutOfDomain(f"evaluation overflows at {x!r}") from exc
    return out[0]


_KERNELS = itertools.count(1)  # numbers the kernels' file names


def _emits(template: str):
    """An Emit operation: one assignment of the template on operand names."""
    return lambda self, *names: self.let(template.format(*names))


class _Emit(Arithmetic):
    """Names of Python variables: each node walked emits one assignment,
    and each distinct check one raising test; see compile_real."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.env: dict[str, object] = {"OutOfDomain": OutOfDomain}
        for f in ("exp", "log", "sin", "cos", "sqrt"):
            self.env[f] = getattr(math, f)
        self.bound: dict[object, str] = {}  # constant's key -> its name
        self.checked: set[str] = set()

    def bind(self, obj) -> str:
        """A name for a Python object (constants are bound, never printed),
        one per ``core._key``, the key that interns nodes: a float by its
        bits, so 0.0 and -0.0 and NaNs of either sign stay apart, and an
        object by identity (the environment keeps it alive)."""
        key = core._key(obj)
        name = self.bound.get(key)
        if name is None:
            name = self.bound[key] = f"k{len(self.env)}"
            self.env[name] = obj
        return name

    const = bind

    def let(self, rhs: str) -> str:
        """A new name, assigned rhs's value."""
        name = f"v{len(self.lines)}"
        self.lines.append(f"{name} = {rhs}")
        return name

    def check(self, failed: str, message: str, shown: str) -> None:
        line = f"if {failed}: raise OutOfDomain({self.bind(message)}.format({shown}))"
        if line not in self.checked:
            self.checked.add(line)
            self.lines.append(line)

    add, sub, mul = _emits("{} + {}"), _emits("{} - {}"), _emits("{} * {}")
    div, neg, exp = _emits("{} / {}"), _emits("-{}"), _emits("exp({})")
    log, sin, cos = _emits("log({})"), _emits("sin({})"), _emits("cos({})")

    def pow_int(self, a, m):
        return self.let(f"{a} ** {self.bind(m)}")

    pow_real = pow_int

    def root(self, a, m):
        return self.let(f"sqrt({a})") if m == 2 else self.pow_real(a, 1.0 / m)

    def nonzero(self, a, message, shown):
        self.check(f"{a} == 0.0", message, shown)

    def positive(self, a, message):
        self.check(f"{a} <= 0.0", message, a)

    def lift(self, fn, a, slope):
        return self.let(f"{self.bind(fn)}({a})")

    def build(self, e: Expr) -> Callable:
        """e's kernel(lo, w, units, out): e at each lo + w * u, appended to out."""
        result = self.walk(e, "x")
        body = "".join(f"        {line}\n" for line in self.lines)
        source = (
            f"def compiled(lo, w, units, out):\n    for u in units:\n"
            f"        x = lo + w * u\n{body}        out.append({result})\n"
        )
        # the bound names are the function's globals; a file name of its own
        # keeps each kernel apart in profiles and tracebacks
        exec(compile(source, f"<kernel {next(_KERNELS)}>", "exec"), self.env)
        return self.env["compiled"]


class _Show(Arithmetic):
    """Text: each node walked formats its operands' text once; see
    ``Expr.__str__``."""

    # builtins (bound str.format, repr), so an instance lookup returns them as they are
    add, sub, mul = "({} + {})".format, "({} - {})".format, "({} * {})".format
    div, neg, exp = "({} / {})".format, "(-{})".format, "exp({})".format
    log, sin, cos = "log({})".format, "sin({})".format, "cos({})".format
    pow_int, pow_real, root = "({})^{}".format, "({})^{!r}".format, "root({1}, {0})".format
    const, nonzero, positive = repr, _Tree.nonzero, _Tree.nonzero

    def lift(self, fn, a, slope):
        node = fn.__self__  # one that states no text of its own shows its repr
        return (repr if type(node).__str__ is Expr.__str__ else str)(node)


# -- text syntax -----------------------------------------------------------------

# The group is one token.  The last branch, which gives "", takes the rest of
# the text from the first character that starts no token, with the spaces
# before it.
_TOKEN_RE = re.compile(
    r"\s*(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_][A-Za-z_0-9]*|\*\*|[()+\-*/^,])|\s*\S[\s\S]*"
)

# binding power and folding constructor of each left-associative operator
_INFIX = {"+": (1, add), "-": (1, sub), "*": (2, mul), "/": (2, Div)}
# root and pow take a constant first argument
_CALLS = {
    "exp": Exp, "log": Log, "sin": Sin, "cos": Cos, "sqrt": lambda a: Root(a, 2),
    "root": lambda m, a: Root(a, int(m)), "pow": lambda alpha, a: PowReal(a, alpha),
}


def _expected(op: str, tok: str | None) -> DomainError:
    if tok is None:
        return DomainError("unexpected end of expression")
    return DomainError(f"expected {op!r}, got {tok!r}")


def _climb(toks: list, i: int, floor: int = 1) -> tuple[Expr, int]:
    """The operand at toks[i] folded with each operator after it that binds
    at least as tightly as floor, and the index after them."""
    lhs, i = _prefix(toks, i)
    op = _INFIX.get(toks[i])
    while op is not None and op[0] >= floor:
        rhs, i = _climb(toks, i + 1, op[0] + 1)
        lhs = op[1](lhs, rhs)
        op = _INFIX.get(toks[i])
    return lhs, i


def _prefix(toks: list, i: int) -> tuple[Expr, int]:
    """The signed atom, call or parenthesized expression at toks[i], raised
    to the right-associative power after it, and the index after them.
    Unary minus binds looser than the power: -x^2 is -(x^2)."""
    tok = toks[i]
    i += 1
    if tok == "x":
        e = Var()
    elif tok == "(":
        e, i = _climb(toks, i)
        if toks[i] != ")":
            raise _expected(")", toks[i])
        i += 1
    elif tok == "-":
        e, i = _prefix(toks, i)
        return neg(e), i
    elif tok == "+":
        return _prefix(toks, i)
    elif tok in _CALLS:
        if toks[i] != "(":
            raise _expected("(", toks[i])
        e, i = _climb(toks, i + 1)
        args = (e,)
        if tok == "root" or tok == "pow":
            c = _const_value(e)
            if c is None:
                raise DomainError(f"first argument of {tok} must be constant")
            if toks[i] != ",":
                raise _expected(",", toks[i])
            e, i = _climb(toks, i + 1)
            args = (c, e)
        if toks[i] != ")":
            raise _expected(")", toks[i])
        i += 1
        if tok == "root" and not (math.isfinite(c) and c == int(c) and c >= 2):
            raise DomainError("root degree must be an integer > 1")
        if tok == "pow" and not math.isfinite(c):
            raise DomainError("first argument of pow must be finite")
        e = _CALLS[tok](*args)
    elif tok == "pi":
        e = Const(math.pi)
    elif tok is None:
        raise DomainError("unexpected end of expression")
    elif tok[0].isdecimal() or tok[0] == ".":
        e = Const(float(tok))
        if math.isinf(e.value):
            raise DomainError(f"numeric literal {tok} overflows to infinity")
    elif tok[0].isalpha() or tok[0] == "_":
        raise DomainError(f"unknown name {tok!r} (the variable is 'x')")
    else:
        raise DomainError(f"unexpected token {tok!r}")
    if toks[i] == "^" or toks[i] == "**":
        exponent, i = _prefix(toks, i + 1)
        c = _const_value(exponent)
        if c is None:
            raise DomainError("exponents must be constants")
        if not math.isfinite(c):
            raise DomainError("exponents must be finite")
        e = pow_int(e, int(c)) if c == int(c) else PowReal(e, c)
    return e, i


def parse(text: str) -> Expr:
    """Parse infix syntax: x, numbers, pi, + - * / ^, exp/log/sin/cos/sqrt,
    root(m, e), pow(alpha, e).  The tree is interned under (parse, text)
    too, so parsing text whose tree is live is one lookup; errors are not
    stored."""
    if type(text) is not str:
        raise DomainError(f"an expression must be text, not {text!r}")
    key = (parse, text)
    ref = core._INTERNED.get(key)
    if ref is not None and (e := ref()) is not None:
        return e
    toks: list = _TOKEN_RE.findall(text)
    if toks and not toks[-1]:
        *_, bad = _TOKEN_RE.finditer(text)
        raise DomainError(f"bad expression syntax near {bad[0]!r}")
    toks.append(None)
    try:
        e, i = _climb(toks, 0)
    except RecursionError as exc:
        raise DomainError(TOO_DEEP) from exc
    if toks[i] is not None:
        raise DomainError(f"trailing input at {toks[i]!r}")
    return core._intern(key, e)
