"""Seeded inputs for the benchmark.

Everything here is the benchmark's own code: functions are built as small
tuple trees, rendered to the text syntax the library parses, and checked
for validity with plain ``math``.  The library never sees anything but the
rendered texts and wire JSON, so a change to the library cannot change the
inputs it is measured on.

Sizes and op kinds are stratified (a fixed multiset per run, shuffled by
the seed), so two seeds give the same mix of work and differ only in the
particular functions, points and sets.
"""

from __future__ import annotations

import json
import math
import random

#: Generators of the library's default catalog, so every value is printable
#: by ``seq print`` too.
GENERATOR_IDS = ("e:1", "e:2", "e:3", "e:4", "e:5", "e:6", "e:7", "e:8", "h", "g:0.5", "g:0.25")

#: Every function is valid, with margin, on this closed interval; the
#: extensions are built on the open interval (-DOMAIN, DOMAIN).
DOMAIN = 2.0
_CHECK_REACH = 2.2
_CHECK_GRID = [-_CHECK_REACH + 2 * _CHECK_REACH * i / 200 for i in range(201)]

# Constants are never 0 or 1 and never meet another constant in + - *, so
# the parser folds nothing and the tree it builds has exactly count() nodes.
_CONST_TEXTS = ("2", "3", "0.5", "1.5", "2.5", ".25", "0.75", "1.25e0", "15e-1", "2.", "pi", "0.3")
_UNARY = ("exp", "log", "sin", "cos", "sqrt", "root", "powr", "powi", "neg")
_BINARY = ("add", "sub", "mul", "div")
_NEEDS_POSITIVE = ("log", "sqrt", "root", "powr")


class Invalid(Exception):
    """A generated function leaves the safe range somewhere on the grid."""


# -- trees ---------------------------------------------------------------------


def count(t) -> int:
    """Nodes of the tree the library's parser builds from render(t)."""
    kind = t[0]
    if kind in ("x", "c"):
        return 1
    if kind in _BINARY:
        return 1 + count(t[1]) + count(t[2])
    return 1 + count(t[1])


def features(t, out=None) -> set:
    out = set() if out is None else out
    kind = t[0]
    out.add(kind)
    if kind == "c":
        out.add("pi" if t[2] == "pi" else "e-notation" if "e" in t[2] else "number")
    elif kind == "x" and t[1]:
        out.add("unary-plus")
    elif kind == "powi":
        out.add("**" if t[3] else "^")
        if t[2] < 0:
            out.add("negative-exponent")
    elif kind == "powr":
        out.add("pow()" if t[3] else "^real")
    for child in t[1:]:
        if isinstance(child, tuple):
            features(child, out)
    return out


def evaluate(t, x: float) -> float:
    """Plain-math value, raising Invalid outside the safe range."""
    kind = t[0]
    if kind == "x":
        return x
    if kind == "c":
        return t[1]
    a = evaluate(t[1], x)
    if kind in _BINARY:
        b = evaluate(t[2], x)
        if kind == "add":
            v = a + b
        elif kind == "sub":
            v = a - b
        elif kind == "mul":
            v = a * b
        else:
            # positive, not just nonzero: a sign change between two grid
            # points would hide a pole
            if b < 0.05:
                raise Invalid
            v = a / b
    elif kind in _NEEDS_POSITIVE and a < 0.05:
        raise Invalid
    elif kind == "exp":
        if a > 6.0:
            raise Invalid
        v = math.exp(a)
    elif kind == "log":
        v = math.log(a)
    elif kind == "sin":
        v = math.sin(a)
    elif kind == "cos":
        v = math.cos(a)
    elif kind == "sqrt":
        v = math.sqrt(a)
    elif kind == "root":
        v = a ** (1.0 / t[2])
    elif kind == "powr":
        v = a ** t[2]
    elif kind == "powi":
        if t[2] < 0 and a < 0.2:
            raise Invalid
        v = a ** t[2]
    else:  # neg
        v = -a
    if not abs(v) <= 1e4:
        raise Invalid
    return v


def render(t) -> str:
    return _render(t)[0]


_PREC_ADD, _PREC_MUL, _PREC_FACTOR, _PREC_ATOM = 1, 2, 3, 4


def _wrap(t, need: int) -> str:
    text, prec = _render(t)
    return text if prec >= need else f"({text})"


def _render(t) -> tuple[str, int]:
    kind = t[0]
    if kind == "x":
        return ("+x", _PREC_FACTOR) if t[1] else ("x", _PREC_ATOM)
    if kind == "c":
        return t[2], _PREC_ATOM
    if kind in ("add", "sub"):
        op = "+" if kind == "add" else "-"
        return f"{_wrap(t[1], _PREC_ADD)} {op} {_wrap(t[2], _PREC_MUL)}", _PREC_ADD
    if kind in ("mul", "div"):
        op = "*" if kind == "mul" else "/"
        return f"{_wrap(t[1], _PREC_MUL)} {op} {_wrap(t[2], _PREC_FACTOR)}", _PREC_MUL
    if kind == "neg":
        return f"-{_wrap(t[1], _PREC_FACTOR)}", _PREC_FACTOR
    if kind == "powi":
        exponent = f"({t[2]})" if t[2] < 0 and t[3] else str(t[2])
        return f"{_wrap(t[1], _PREC_ATOM)}{'**' if t[3] else '^'}{exponent}", _PREC_FACTOR
    if kind == "powr":
        if t[3]:
            return f"pow({t[2]!r}, {render(t[1])})", _PREC_ATOM
        return f"{_wrap(t[1], _PREC_ATOM)}^{t[2]!r}", _PREC_FACTOR
    if kind == "root":
        return f"root({t[2]}, {render(t[1])})", _PREC_ATOM
    return f"{kind}({render(t[1])})", _PREC_ATOM


# -- random functions ----------------------------------------------------------------


def _const(rng: random.Random):
    text = rng.choice(_CONST_TEXTS)
    return ("c", math.pi if text == "pi" else float(text), text)


def _var(rng: random.Random):
    return ("x", rng.random() < 0.1)


def _positive(rng: random.Random, n: int):
    """A subtree of n >= 2 nodes that is positive on the whole grid."""
    if n == 2:
        return ("exp", _var(rng))
    if n == 3 or rng.random() < 0.3:
        return ("add", ("c", 3.5, "3.5"), _var(rng) if n == 3 else _tree(rng, n - 2))
    if rng.random() < 0.5:
        return ("add", ("c", 2.5, "2.5"), (rng.choice(("sin", "cos")), _tree(rng, n - 3)))
    return ("add", ("c", 0.5, "0.5"), ("powi", _tree(rng, n - 3), 2, rng.random() < 0.3))


def _tree(rng: random.Random, n: int):
    if n == 1:
        return _var(rng) if rng.random() < 0.8 else _const(rng)
    kind = rng.choice(_UNARY + _BINARY + _BINARY if n >= 3 else _UNARY)
    if kind in _BINARY:
        left = rng.randint(1, n - 2)
        a, b = _tree(rng, left), _tree(rng, n - 1 - left)
        if a[0] == "c" and b[0] == "c":
            b = _var(rng)
        if kind == "div" and n - 1 - left >= 2 and rng.random() < 0.7:
            b = _positive(rng, n - 1 - left)
        return (kind, a, b)
    if kind in _NEEDS_POSITIVE:
        arg = _positive(rng, n - 1) if n >= 3 else ("c", 2.0, "2")
    else:
        arg = _tree(rng, n - 1)
    if kind == "neg" and arg[0] in ("c", "neg"):
        kind = "sin"  # the parser would fold the negation away
    if kind == "root":
        return ("root", arg, rng.choice((3, 4, 5)))
    if kind == "powr":
        return ("powr", arg, rng.choice((0.5, 1.5, 2.5, -0.5)), rng.random() < 0.5)
    if kind == "powi":
        return ("powi", arg, rng.choice((2, 2, 3, 4, -1, -2)), rng.random() < 0.3)
    return (kind, arg)


def valid(t) -> bool:
    try:
        for x in _CHECK_GRID[::10] + _CHECK_GRID:  # coarse pass rejects most
            evaluate(t, x)
    except (Invalid, OverflowError, ValueError, ZeroDivisionError):
        return False
    return True


def random_function(rng: random.Random, n: int):
    """A tree of exactly n nodes, valid with margin on the check grid."""
    while True:
        t = _tree(rng, n)
        if count(t) == n and valid(t):
            return t


def monotone_function(rng: random.Random, n: int):
    """A strictly monotone tree of n >= 3 nodes: a*x plus increasing terms
    whose slopes never cancel it, optionally negated."""
    while True:
        terms = [("mul", ("c", 1.5, "1.5"), _var(rng))]
        size = 3
        while size < n:
            room = n - size - 1
            options = []
            if room >= 2:
                options += [("exp", _var(rng)), ("powi", _var(rng), 3, False)]
            if room >= 3:
                options += [
                    ("mul", ("c", 0.5, "0.5"), ("sin", _var(rng))),
                    ("sqrt", ("add", ("c", 3.5, "3.5"), _var(rng))),
                ]
            if room >= 4:
                options.append(("root", ("add", ("c", 1.5, "1.5"), ("exp", _var(rng))), 3))
            if not options:
                break
            term = rng.choice(options)
            terms.append(term)
            size += count(term) + 1
        t = terms[0]
        for term in terms[1:]:
            t = ("add", t, term)
        if rng.random() < 0.5 and count(t) < n:
            t = ("neg", t)
        if valid(t):
            return t


# -- points and sets ---------------------------------------------------------------------


def point(rng: random.Random, lo: float = -1.9, hi: float = 1.9) -> dict:
    """Wire JSON of a generalized value with 1..6 generators."""
    gids = rng.sample(GENERATOR_IDS, rng.randint(1, 6))
    return {"shadow": rng.uniform(lo, hi), "d": {g: rng.uniform(-2.0, 2.0) for g in gids}}


def stratified(rng: random.Random, values: list, n: int) -> list:
    """n items cycling through values in order, then shuffled: every seed
    gets the same multiset."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def log_uniform_sizes(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n sizes at the quantiles of a log-uniform law, jittered within
    their stratum and shuffled."""
    out = []
    for i in range(n):
        u = (i + rng.random()) / n
        out.append(int(round(lo * (hi / lo) ** u)))
    rng.shuffle(out)
    return out


def real_set(rng: random.Random, n: int, anchors: list[float]) -> dict:
    """Wire JSON of a monadic set: n intervals, n // 4 stray points, some
    endpoints drawn from shared anchors so that merges with the other
    operand are forced."""
    span = 10.0 * n
    cuts = sorted(rng.uniform(-span, span) for _ in range(2 * n))
    for i in range(0, len(cuts), 5):
        cuts[i] = rng.choice(anchors)
    cuts.sort()
    intervals = []
    for i in range(n):
        lo, hi = cuts[2 * i], cuts[2 * i + 1]
        intervals.append({"lo": lo, "hi": hi, "lo_closed": rng.random() < 0.5, "hi_closed": rng.random() < 0.5})
    points = [rng.choice(anchors) if rng.random() < 0.5 else rng.uniform(-span, span) for _ in range(n // 4)]
    return {"intervals": intervals, "points": points, "extras": []}


def dumps(data) -> str:
    return json.dumps(data, allow_nan=False)


# -- cost model ------------------------------------------------------------------------
#
# The library differentiates symbolically, with constant folding and no other
# simplification, and evaluates the derivative trees node by node, so the
# cost of a higher-order op grows with the size of its top derivative tree.
# This mirrors those rules on the benchmark's own trees, so that ops can be
# drawn with their cost stratified without asking the library.


def _c(v: float):
    return ("c", float(v), repr(float(v)))


def _is(t, v) -> bool:
    return t[0] == "c" and t[1] == v


def _fadd(a, b):
    if a[0] == "c" and b[0] == "c":
        return _c(a[1] + b[1])
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    return ("add", a, b)


def _fsub(a, b):
    if a[0] == "c" and b[0] == "c":
        return _c(a[1] - b[1])
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return _fneg(b)
    return ("sub", a, b)


def _fmul(a, b):
    if a[0] == "c" and b[0] == "c":
        return _c(a[1] * b[1])
    if _is(a, 0.0) or _is(b, 0.0):
        return _c(0.0)
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    return ("mul", a, b)


def _fneg(a):
    if a[0] == "c":
        return _c(-a[1])
    if a[0] == "neg":
        return a[1]
    return ("neg", a)


def _fpowi(b, m: int):
    if m == 0:
        return _c(1.0)
    if m == 1:
        return b
    return ("powi", b, m, False)


def deriv(t):
    kind = t[0]
    if kind == "c":
        return _c(0.0)
    if kind == "x":
        return _c(1.0)
    if kind in _BINARY:
        a, b = t[1], t[2]
        da, db = deriv(a), deriv(b)
        if kind == "add":
            return _fadd(da, db)
        if kind == "sub":
            return _fsub(da, db)
        if kind == "mul":
            return _fadd(_fmul(da, b), _fmul(a, db))
        return ("div", _fsub(_fmul(da, b), _fmul(a, db)), _fpowi(b, 2))
    a = t[1]
    da = deriv(a)
    if kind == "neg":
        return _fneg(da)
    if kind == "powi":
        return _fmul(_fmul(_c(t[2]), _fpowi(a, t[2] - 1)), da)
    if kind == "powr":
        return _fmul(_fmul(_c(t[2]), ("powr", a, t[2] - 1.0, False)), da)
    if kind in ("root", "sqrt"):
        m = t[2] if kind == "root" else 2
        return ("div", da, _fmul(_c(m), _fpowi(t, m - 1)))
    if kind == "exp":
        return _fmul(t, da)
    if kind == "log":
        return ("div", da, a)
    if kind == "sin":
        return _fmul(("cos", a), da)
    return _fmul(_fneg(("sin", a)), da)  # cos


def derivative_sizes(t, upto: int, cap: int = 10**6) -> list[int]:
    """count() of the 0th..upto-th derivative trees; stops early (with a
    shorter list) once a tree exceeds cap nodes."""
    sizes = [count(t)]
    for _ in range(upto):
        if sizes[-1] > cap:
            break
        t = deriv(t)
        sizes.append(count(t))
    return sizes


def varies(t) -> bool:
    """The function is not constant on the grid."""
    values = [evaluate(t, x) for x in _CHECK_GRID[::10]]
    return max(values) - min(values) > 1e-3


def _slope_varies(t) -> bool:
    """The derivative is not constant either, so every higher-order op has
    a unique answer up to the oracle's tolerance."""
    try:
        return varies(deriv(t))
    except (Invalid, OverflowError, ValueError, ZeroDivisionError):
        return False


# -- per-workload inputs -----------------------------------------------------------------
#
# Each builder returns a dict with
#   spec   what set-up builds from (function texts), sent to the library;
#   ops    one JSON-able dict per op, in run order;
#   trees  the benchmark's own trees of spec's functions, for the oracle only;
#   props  input properties recorded with the run.

#: Grammar features the first-order pool must cover between its functions.
GRAMMAR = frozenset(
    "x c add sub mul div neg exp log sin cos sqrt root powi powr ** ^ "
    "negative-exponent ^real pow() pi e-notation number unary-plus".split()
)


def _function(rng, n, accept=lambda t: True):
    while True:
        t = random_function(rng, n)
        if varies(t) and accept(t):
            return t


def _cover_grammar(rng, pool, sizes):
    """Swap pool members until the pool uses every GRAMMAR feature."""
    have = [features(t) for t in pool]
    for _ in range(5000):
        covered = GRAMMAR & set().union(*have)
        if covered == GRAMMAR:
            return
        i = rng.randrange(len(pool))
        t = _function(rng, sizes[i])
        rest = set().union(*(h for j, h in enumerate(have) if j != i))
        if len(GRAMMAR & (rest | features(t))) > len(covered):
            pool[i], have[i] = t, features(t)
    raise RuntimeError("could not cover the grammar")


def _round_robin(rng, k: int, n: int) -> list[int]:
    """n indices into k items, each used equally often, in seeded order."""
    out: list[int] = []
    while len(out) < n:
        cycle = list(range(k))
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:n]


def first_order(rng: random.Random, n_ops: int) -> dict:
    sizes = list(range(3, 31)) * 2
    pool = [_function(rng, n) for n in sizes]
    _cover_grammar(rng, pool, sizes)
    ops, gens = [], []
    for f in _round_robin(rng, len(pool), n_ops):
        points = [point(rng) for _ in range(16)]
        gens.extend(len(p["d"]) for p in points)
        ops.append({
            "f": f,
            "points": [dumps(p) for p in points],
            "gens": sum(len(p["d"]) for p in points),
            "ring": [rng.uniform(0.5, 2.0), rng.choice((2, 3)), rng.choice((2, 3, 4)), rng.uniform(0.5, 2.0)],
        })
    return {
        "spec": {"functions": [render(t) for t in pool], "nodes": [count(t) for t in pool]},
        "ops": ops,
        "trees": pool,
        "props": {
            "functions": len(pool),
            "nodes_min": min(sizes),
            "nodes_mean": sum(sizes) / len(sizes),
            "nodes_max": max(sizes),
            "generators_per_value_mean": sum(gens) / len(gens),
            "grammar": sorted(set().union(*(features(t) for t in pool))),
        },
    }


def _strata(lo: int, hi: int, k: int = 8) -> tuple:
    edges = [round(lo + (hi - lo) * i / k) for i in range(k + 1)]
    return tuple(zip(edges, edges[1:]))


#: (kind, parameter, top derivative order, size strata of that derivative).
#: One function per stratum, so every seed does about the same amount of
#: tree evaluation, and enough strata that the median and tail ops fall
#: among many functions rather than on one.
HIGHER_VARIANTS = {
    "deriv.k2": ("deriv", 2, 2, _strata(6, 110)),
    "deriv.k3": ("deriv", 3, 3, _strata(8, 170)),
    "deriv.k4": ("deriv", 4, 4, _strata(10, 220)),
    "taylor.o1": ("taylor", 1, 2, _strata(30, 90)),
    "taylor.o2": ("taylor", 2, 3, _strata(30, 90)),
    "taylor.o3": ("taylor", 3, 4, _strata(30, 90)),
    "mean_value": ("mean_value", None, 1, _strata(3, 35, 24)),
    "image_set": ("image_set", None, 1, _strata(3, 35)),
    "inverse": ("inverse", None, None, tuple(range(4, 12))),
}
#: Op slots per cycle: Taylor weighted toward low orders, and the median op
#: inside the mean-value class rather than on the edge between two kinds;
#: that class has the most functions, so the median moves in small steps.
HIGHER_SLOTS = (
    "deriv.k2", "deriv.k3", "deriv.k4", "image_set", "mean_value", "mean_value",
    "mean_value", "mean_value", "inverse", "taylor.o1", "taylor.o1", "taylor.o2", "taylor.o3",
)


class _Candidates:
    """Random functions of 3..10 nodes with their derivative sizes, drawn
    in batches, from which each stratum takes a match."""

    CAP = 400

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.items: list[tuple] = []

    def _grow(self, k: int) -> None:
        for _ in range(k):
            t = _function(self.rng, self.rng.randint(3, 10), _slope_varies)
            self.items.append((t, derivative_sizes(t, 4, cap=self.CAP)))

    def take(self, order: int, lo: int, hi: int):
        """A function whose order-th derivative has lo <= size < hi; after
        4000 draws without one, the closest draw."""
        def size(item):
            sizes = item[1]
            return sizes[order] if len(sizes) > order else math.inf

        while len(self.items) < 4000:
            matches = [i for i, item in enumerate(self.items) if lo <= size(item) < hi]
            if matches:
                return self.items.pop(self.rng.choice(matches))[0]
            self._grow(50)
        best = min(range(len(self.items)), key=lambda i: abs(size(self.items[i]) - (lo + hi) / 2))
        return self.items.pop(best)[0]


def _in_stratum(order: int, lo: int, hi: int):
    def accept(t):
        sizes = derivative_sizes(t, order, cap=hi)
        return len(sizes) == order + 1 and lo <= sizes[-1] < hi
    return accept


def higher_order(rng: random.Random, n_ops: int) -> dict:
    trees, pools = [], {}
    candidates = _Candidates(rng)
    for name, (kind, _, order, strata) in HIGHER_VARIANTS.items():
        pools[name] = []
        for stratum in strata:
            if kind == "inverse":
                t = monotone_function(rng, stratum)
            else:
                t = candidates.take(order, *stratum)
            pools[name].append(len(trees))
            trees.append(t)
    slots = stratified(rng, list(HIGHER_SLOTS), n_ops)
    turn = {name: _round_robin(rng, len(pools[name]), n_ops) for name in HIGHER_VARIANTS}
    used = {name: 0 for name in HIGHER_VARIANTS}
    ops = []
    for name in slots:
        kind, param, _, _ = HIGHER_VARIANTS[name]
        f = pools[name][turn[name][used[name]]]
        used[name] += 1
        op = {"variant": name, "kind": kind, "param": param, "f": f}
        if kind == "deriv":
            op["x"] = dumps(point(rng))
        elif kind == "taylor":
            c = rng.uniform(-1.2, 1.2)
            op["center"] = c
            s = c + rng.choice((-1, 1)) * rng.uniform(0.2, 0.6)
            op["x"] = dumps(point(rng, s, s))
        elif kind == "mean_value":
            a = rng.uniform(-1.8, 0.8)
            op["a"] = dumps(point(rng, a, a))
            op["b"] = dumps(point(rng, a + 0.4, min(1.8, a + 2.0)))
        elif kind == "image_set":
            a = rng.uniform(-1.8, 1.0)
            op["interval"] = [a, rng.uniform(a + 0.3, 1.8)]
        else:
            y = point(rng)
            y["shadow"] = evaluate(trees[f], rng.uniform(-1.5, 1.5))
            op["y"] = dumps(y)
        ops.append(op)
    sizes = {
        name: [derivative_sizes(trees[i], order or 1)[-1] for i in pools[name]]
        for name, (_, _, order, _) in HIGHER_VARIANTS.items()
    }
    return {
        "spec": {"functions": [render(t) for t in trees]},
        "ops": ops,
        "trees": trees,
        "props": {
            "functions": len(trees),
            "nodes": [count(t) for t in trees],
            "order_mix": {name: slots.count(name) for name in HIGHER_VARIANTS},
            "top_derivative_nodes": sizes,
        },
    }


#: Writes and reads alternate along the size order, 1:1.
SET_KINDS = (
    "union", "sup", "intersect", "inf", "difference", "max", "interior", "member",
    "closure", "is_open", "boundary", "is_closed", "exterior", "is_connected",
)


def size_bin(n: int) -> str:
    return "small" if n <= 32 else "large" if n >= 256 else "mid"


def set_algebra(rng: random.Random, n_ops: int) -> dict:
    sizes = sorted(log_uniform_sizes(rng, 4, 512, n_ops))
    pairs = [(n, SET_KINDS[i % len(SET_KINDS)]) for i, n in enumerate(sizes)]
    rng.shuffle(pairs)
    ops = []
    for n, kind in pairs:
        anchors = [rng.uniform(-10.0 * n, 10.0 * n) for _ in range(max(2, n // 4))]
        a, b = real_set(rng, n, anchors), real_set(rng, n, anchors)
        op = {"kind": kind, "n": n, "a": dumps(a), "b": dumps(b)}
        if kind == "member":
            ends = [e for iv in a["intervals"] for e in (iv["lo"], iv["hi"])]
            op["probes"] = [rng.choice(ends) for _ in range(8)] + [
                rng.uniform(-10.0 * n, 10.0 * n) for _ in range(8)
            ]
        ops.append(op)
    bins = {b: sum(1 for n in sizes if size_bin(n) == b) for b in ("small", "mid", "large")}
    return {
        "spec": {},
        "ops": ops,
        "trees": [],
        "props": {
            "ops_per_size_bin": bins,
            "intervals_per_side_mean": sum(sizes) / len(sizes),
            "kinds": {k: sum(1 for _, kk in pairs if kk == k) for k in SET_KINDS},
        },
    }


CLI_VERBS = ("eval", "diff", "taylor", "sets", "seq")
_CLI_SET_OPS = ("union", "intersect", "difference", "interior", "closure", "boundary", "sup", "inf", "is_connected")


def cli_cold(rng: random.Random, n_ops: int) -> dict:
    ops, trees = [], []
    for i in range(n_ops):
        verb = CLI_VERBS[i % len(CLI_VERBS)]
        op = {"verb": verb, "f": None}
        if verb == "eval":
            t = _function(rng, rng.randint(3, 12))
            op["argv"] = ["eval", "--at", dumps(point(rng))]
        elif verb == "diff":
            k = 1 + (i // len(CLI_VERBS)) % 3
            t = _function(rng, rng.randint(3, 10), _in_stratum(k, 1, 200))
            op["order"] = k
            op["argv"] = ["diff", "--at", dumps(point(rng)), "--order", str(k)]
        elif verb == "taylor":
            k = 1 + (i // len(CLI_VERBS)) % 2
            t = _function(rng, rng.randint(3, 10), _in_stratum(k + 1, 1, 60))
            c = rng.uniform(-1.2, 1.2)
            s = c + rng.choice((-1, 1)) * rng.uniform(0.2, 0.6)
            op.update(order=k, center=c)
            # "--center=" form: argparse would take "-7e-05" for an option
            op["argv"] = ["taylor", f"--center={c!r}", "--order", str(k),
                          "--at", dumps(point(rng, s, s)), "--domain", str(-DOMAIN), str(DOMAIN)]
        elif verb == "sets":
            name = _CLI_SET_OPS[(i // len(CLI_VERBS)) % len(_CLI_SET_OPS)]
            n = rng.randint(1, 8)
            anchors = [rng.uniform(-10.0 * n, 10.0 * n) for _ in range(2)]
            args = [dumps(real_set(rng, n, anchors))]
            if name in ("union", "intersect", "difference"):
                args.append(dumps(real_set(rng, n, anchors)))
            op["argv"] = ["sets", name, *args]
        else:
            op["argv"] = ["seq", "print", dumps(point(rng)), "--terms", str(rng.randint(4, 32))]
        if verb in ("eval", "diff", "taylor"):
            # options first and "--" before the expression, which may start with "-"
            op["argv"] += ["--", render(t)]
            op["f"], op["nodes"] = len(trees), count(t)
            trees.append(t)
        ops.append(op)
    return {
        "spec": {},
        "ops": ops,
        "trees": trees,
        "props": {"verbs": {v: sum(1 for op in ops if op["verb"] == v) for v in CLI_VERBS}},
    }


BUILDERS = {
    "first-order": first_order,
    "higher-order": higher_order,
    "set-algebra": set_algebra,
    "cli-cold": cli_cold,
}


def make_inputs(workload: str, seed: int, n_ops: int) -> dict:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), n_ops)
