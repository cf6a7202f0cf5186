"""Independent correctness checks, run after the timed phases.

Functions are checked against sympy (``diff`` and ``lambdify`` of the
benchmark's own trees, never of the library's), sets against an exact
membership test of the benchmark's own, and sequences against the
generators' defining formulas.  Each check returns None for a correct op
or a one-line reason.  sympy is imported here only, after set-up and the
timed ops, so its import is in neither.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from functools import lru_cache


class NonStandardJSON(ValueError):
    pass


def _reject(name):
    raise NonStandardJSON(f"non-standard JSON constant {name}")


def strict_loads(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject)


def close(got, want, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# -- functions via sympy -----------------------------------------------------------------


class Functions:
    """Derivatives of the benchmark's trees, lambdified on demand."""

    def __init__(self, trees):
        import sympy

        self.sp = sympy
        self.x = sympy.Symbol("x", real=True)
        self.trees = trees
        self._exprs: dict[int, list] = {}
        self._fns: dict[tuple[int, int], object] = {}

    def _to_sympy(self, t):
        sp = self.sp
        kind = t[0]
        if kind == "x":
            return self.x
        if kind == "c":
            return sp.pi if t[2] == "pi" else sp.Float(t[1])
        a = self._to_sympy(t[1])
        if kind in ("add", "sub", "mul", "div"):
            b = self._to_sympy(t[2])
            return {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b}[kind]
        if kind == "neg":
            return -a
        if kind == "powi":
            return a ** t[2]
        if kind == "powr":
            return a ** sp.Float(t[2])
        if kind == "root":
            return a ** sp.Rational(1, t[2])
        return {"exp": sp.exp, "log": sp.log, "sin": sp.sin, "cos": sp.cos, "sqrt": sp.sqrt}[kind](a)

    def __call__(self, i: int, k: int = 0):
        """The k-th derivative of tree i as a float function."""
        key = (i, k)
        if key not in self._fns:
            exprs = self._exprs.setdefault(i, [self._to_sympy(self.trees[i])])
            while len(exprs) <= k:
                exprs.append(self.sp.diff(exprs[-1], self.x))
            self._fns[key] = self.sp.lambdify(self.x, exprs[k], "math")
        return self._fns[key]


def _check_value(got: dict, shadow: float, slope: float, at: dict, tol: float, what: str):
    """got must encode value(shadow) + slope * dx, dx being at's dpart."""
    if not close(got["shadow"], shadow, tol):
        return f"{what}: shadow {got['shadow']!r} != {shadow!r}"
    for g in set(got["d"]) | set(at["d"]):
        want = slope * at["d"].get(g, 0.0)
        if not close(got["d"].get(g, 0.0), want, tol):
            return f"{what}: coefficient of {g} {got['d'].get(g, 0.0)!r} != {want!r}"
    return None


# -- first-order ------------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _ring_oracle():
    """The benchmark's ring expression and its two partial derivatives."""
    import sympy as sp

    X, V, c, p, m, c2 = sp.symbols("X V c p m c2", real=True)
    R = (V * X + X**p) / (X**2 + c) ** (1 / m) + 1 / (V**2 + c2)
    args = (X, V, c, p, m, c2)
    return tuple(sp.lambdify(args, e, "math") for e in (R, sp.diff(R, X), sp.diff(R, V)))


def check_first_order(fns: Functions, op: dict, rows) -> str | None:
    f0, f1 = fns(op["f"], 0), fns(op["f"], 1)
    R, RX, RV = _ring_oracle()
    c, p, m, c2 = op["ring"]
    if len(rows) != len(op["points"]):
        return "missing rows"
    for wire, row in zip(op["points"], rows):
        at = json.loads(wire)
        s = at["shadow"]
        value, slope = f0(s), f1(s)
        g, h, r = (strict_loads(text) for text in row)
        bad = _check_value(g, value, slope, at, 1e-8, "gen_eval") or _check_value(
            h, value, slope, at, 1e-8, "eval_at"
        )
        if bad:
            return bad
        args = (s, value, c, p, m, c2)
        bad = _check_value(r, R(*args), RX(*args) + RV(*args) * slope, at, 1e-8, "ring")
        if bad:
            return bad
    return None


# -- higher-order -------------------------------------------------------------------------------


def check_taylor(fns: Functions, i: int, center: float, order: int, x: float, res: dict):
    h = x - center
    terms = [fns(i, k)(center) * h**k / math.factorial(k) for k in range(order + 1)]
    partial = sum(terms)
    target = fns(i, 0)(x)
    scale = max(1.0, abs(target), *(abs(t) for t in terms))
    if not abs(res["partial_sum"] - partial) <= 1e-9 * scale:
        return f"partial sum {res['partial_sum']!r} != {partial!r}"
    error = abs(target - partial)
    if res["remainder_bound"] < error - 1e-12 * scale:
        return f"remainder bound {res['remainder_bound']!r} < true error {error!r}"
    theta = res["theta"]
    if theta is not None:
        if not 0.0 < theta < 1.0:
            return f"theta {theta!r} outside ]0, 1["
        top = fns(i, order + 1)(center + theta * h) * h ** (order + 1) / math.factorial(order + 1)
        if not abs(target - partial - top) <= 1e-8 * scale:
            return f"theta {theta!r} does not solve the Lagrange remainder identity"
    return None


def check_higher_order(fns: Functions, op: dict, out: str) -> str | None:
    got = strict_loads(out)
    i, kind = op["f"], op["kind"]
    if kind == "deriv":
        s = json.loads(op["x"])["shadow"]
        want = fns(i, op["param"])(s)
        return None if close(got, want, 1e-8) else f"derivative {got!r} != {want!r}"
    if kind == "taylor":
        x = json.loads(op["x"])["shadow"]
        return check_taylor(fns, i, op["center"], op["param"], x, got)
    if kind == "mean_value":
        sa, sb = json.loads(op["a"])["shadow"], json.loads(op["b"])["shadow"]
        slope = (fns(i, 0)(sb) - fns(i, 0)(sa)) / (sb - sa)
        if not sa < got < sb:
            return f"mean value point {got!r} outside ]{sa!r}, {sb!r}["
        d = fns(i, 1)(got)
        return None if close(d, slope, 1e-7) else f"f'(c) = {d!r} != slope {slope!r}"
    if kind == "image_set":
        a, b = op["interval"]
        f0 = fns(i, 0)
        samples = [f0(a + (b - a) * j / 2000) for j in range(2001)]
        lo_s, hi_s = min(samples), max(samples)
        ends = [v for iv in got["intervals"] for v in (iv["lo"], iv["hi"])]
        ends += got["points"] + got["extras"]
        lo, hi = min(ends), max(ends)
        inner = 1e-9 * max(1.0, abs(lo_s), abs(hi_s))
        outer = 1e-3 * max(1.0, hi_s - lo_s)
        if lo > lo_s + inner or hi < hi_s - inner:
            return f"image [{lo!r}, {hi!r}] misses sampled values [{lo_s!r}, {hi_s!r}]"
        if lo < lo_s - outer or hi > hi_s + outer:
            return f"image [{lo!r}, {hi!r}] exceeds sampled values [{lo_s!r}, {hi_s!r}]"
        return None
    y = json.loads(op["y"])
    s = got["shadow"]
    if not close(fns(i, 0)(s), y["shadow"], 1e-9):
        return f"f(inverse(y)) = {fns(i, 0)(s)!r} != {y['shadow']!r}"
    return _check_value(got, s, 1.0 / fns(i, 1)(s), y, 1e-7, "inverse")


# -- sets -----------------------------------------------------------------------------------------


def _endpoint(v) -> float:
    return {"+inf": math.inf, "inf": math.inf, "-inf": -math.inf}.get(v, v) if isinstance(v, str) else float(v)


def _components(doc: dict):
    ints = [
        (_endpoint(iv["lo"]), _endpoint(iv["hi"]), iv.get("lo_closed", True), iv.get("hi_closed", True))
        for iv in doc.get("intervals", [])
    ]
    return ints, [float(p) for p in doc.get("points", [])]


class Grid:
    """Every place where membership in the given sets can change.

    For each endpoint or point v there are three locations: v - eps, v and
    v + eps, eps infinitesimal.  Membership is constant on each open gap
    between consecutive values, and v + eps lies in the gap after v, so
    sets agree on the reals iff they agree on the grid.
    """

    def __init__(self, *docs):
        values = set()
        for doc in docs:
            ints, pts = _components(doc)
            values.update(v for iv in ints for v in iv[:2] if math.isfinite(v))
            values.update(pts)
        values = sorted(values) or [0.0]
        values = [values[0] - 1.0] + values + [values[-1] + 1.0]
        self.keys = [(v, side) for v in values for side in (-1, 0, 1)]

    def members(self, doc: dict) -> list[bool]:
        ints, pts = _components(doc)
        cover = [0] * (len(self.keys) + 1)
        for lo, hi, lc, hc in ints:
            start = 0 if lo == -math.inf else bisect_left(self.keys, (lo, 0 if lc else 1))
            end = len(self.keys) if hi == math.inf else bisect_right(self.keys, (hi, 0 if hc else -1))
            if start < end:
                cover[start] += 1
                cover[end] -= 1
        out, run = [], 0
        for c in cover[:-1]:
            run += c
            out.append(run > 0)
        for p in pts:
            out[bisect_left(self.keys, (p, 0))] = True
        return out

    @staticmethod
    def interior(m: list[bool]) -> list[bool]:
        """v is interior iff v - eps, v and v + eps are members."""
        return [m[i] and (i % 3 != 1 or (m[i - 1] and m[i + 1])) for i in range(len(m))]

    @staticmethod
    def closure(m: list[bool]) -> list[bool]:
        return [m[i] or (i % 3 == 1 and (m[i - 1] or m[i + 1])) for i in range(len(m))]


def _sup_inf(doc: dict, upper: bool):
    ints, pts = _components(doc)
    ends = [(hi if upper else lo) for lo, hi, lc, hc in ints if lo < hi or (lc and hc)] + pts
    return (max if upper else min)(ends)


def check_set_op(kind: str, a: dict, b: dict | None, out) -> str | None:
    if kind in ("sup", "inf"):
        want = _sup_inf(a, kind == "sup")
        return None if out == want else f"{kind} {out!r} != {want!r}"
    if isinstance(out, dict) and out.get("extras"):
        return "result of monadic operands has extra points"
    grid = Grid(a, *(d for d in (b, out if isinstance(out, dict) else None) if d))
    ma = grid.members(a)
    if kind == "max":
        sup = _sup_inf(a, True)
        want = sup if ma[bisect_left(grid.keys, (sup, 0))] else None
        return None if out == want else f"max {out!r} != {want!r}"
    if kind in ("is_open", "is_closed"):
        want = ma == (grid.interior(ma) if kind == "is_open" else grid.closure(ma))
        return None if out is want else f"{kind} {out!r} != {want!r}"
    if kind == "is_connected":
        runs = sum(1 for i, m in enumerate(ma) if m and (i == 0 or not ma[i - 1]))
        want = runs <= 1
        return None if out is want else f"is_connected {out!r} != {want!r}"
    if kind in ("union", "intersect", "difference"):
        mb = grid.members(b)
        op = {"union": lambda p, q: p or q, "intersect": lambda p, q: p and q,
              "difference": lambda p, q: p and not q}[kind]
        want = [op(p, q) for p, q in zip(ma, mb)]
    else:
        inner, outer = grid.interior(ma), grid.closure(ma)
        want = {
            "interior": inner,
            "closure": outer,
            "boundary": [o and not i for i, o in zip(inner, outer)],
            "exterior": [not o for o in outer],
        }[kind]
    got = grid.members(out)
    if got != want:
        j = next(i for i, (p, q) in enumerate(zip(got, want)) if p != q)
        return f"{kind}: membership at {grid.keys[j]!r} is {got[j]} not {want[j]}"
    return None


def check_member(a: dict, probes, out) -> str | None:
    grid = Grid(a, {"points": probes})
    ma = grid.members(a)
    want = [ma[bisect_left(grid.keys, (float(p), 0))] for p in probes]
    return None if out == want else f"member {out!r} != {want!r}"


def check_set_algebra(op: dict, out: str) -> str | None:
    got = strict_loads(out)
    a = json.loads(op["a"])
    if op["kind"] == "member":
        return check_member(a, op["probes"], got)
    return check_set_op(op["kind"], a, json.loads(op["b"]), got)


# -- cli-cold ------------------------------------------------------------------------------------


def _seq_term(gid: str, n: int) -> float:
    if gid == "h":
        return 1.0 / n
    if gid.startswith("e:"):
        return 1.0 if n == int(gid[2:]) else 0.0
    return float(gid[2:]) ** n


def check_cli(fns: Functions, op: dict, res: dict) -> str | None:
    if res["code"] != 0:
        return f"exit code {res['code']}: {res['out'][:200]!r}"
    lines = res["out"].splitlines()
    if len(lines) != 1:
        return f"expected one JSON line, got {len(lines)}"
    got = strict_loads(lines[0])
    argv, verb = op["argv"], op["verb"]
    if verb == "sets":
        args = [json.loads(a) for a in argv[2:]]
        return check_set_op(argv[1], args[0], args[1] if len(args) > 1 else None, got)
    if verb == "seq":
        at = json.loads(argv[2])
        want = []
        for n in range(1, int(argv[4]) + 1):
            v = at["shadow"]
            for g, c in at["d"].items():
                v += c * _seq_term(g, n)
            want.append(v)
        ok = len(got) == len(want) and all(close(p, q, 1e-12) for p, q in zip(got, want))
        return None if ok else f"seq prefix {got!r} != {want!r}"
    at = json.loads(argv[argv.index("--at") + 1])
    i, s = op["f"], at["shadow"]
    if verb == "eval":
        return _check_value(got, fns(i, 0)(s), fns(i, 1)(s), at, 1e-8, "eval")
    if verb == "diff":
        want = fns(i, op["order"])(s)
        return None if close(got, want, 1e-8) else f"diff {got!r} != {want!r}"
    return check_taylor(fns, i, op["center"], op["order"], s, got)


def check_all(workload: str, trees: list, ops: list, results: list, errors: list) -> list[str | None]:
    """One entry per op: None when correct, else why not."""
    fns = Functions(trees) if trees else None
    out = []
    for op, res, err in zip(ops, results, errors):
        if err is not None:
            out.append(err)
            continue
        try:
            if workload == "first-order":
                out.append(check_first_order(fns, op, res))
            elif workload == "higher-order":
                out.append(check_higher_order(fns, op, res))
            elif workload == "set-algebra":
                out.append(check_set_algebra(op, res))
            else:
                out.append(check_cli(fns, op, res))
        except (NonStandardJSON, ValueError, KeyError, TypeError) as exc:
            out.append(f"malformed result: {type(exc).__name__}: {exc}")
    return out
