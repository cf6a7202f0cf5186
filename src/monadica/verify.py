"""Executable verification suites.

Each suite turns a family of identities into randomized checks with frozen
tolerances: exact assertions where the arithmetic is exact by construction,
1e-12 for pure-arithmetic float identities, 1e-9 where values pass through
transcendental evaluation.  Suites are deterministic given a seed.

A suite is a body ``(s, rng)`` decorated with ``@_suite(name)``, which
registers it in ``SUITES`` in definition order and turns it into its runner
``check_<name>(seed=0) -> list[CheckResult]``.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from . import calculus, core, seq, sets
from .calculus import (
    MonadRule,
    NaturalExtension,
    PiecewiseExtension,
    image_set,
    inverse_extension,
    mean_value_point,
    taylor_expand,
)
from .core import GeneralizedReal, make
from .errors import MonadicaError, ProvisoViolated
from .expr import Const, Cos, Exp, Expr, Log, Neg, PowReal, Root, Sin, Var, gen_eval, pow_int
from .sets import GeneralizedSet, Interval, RealSet, hat_interval, monad, shadow

_INF = math.inf


class CheckResult(core.Record):
    __slots__ = ("suite", "name", "passed", "detail")

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        return f"{mark} {self.suite}.{self.name}{tail}"


class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.results: list[CheckResult] = []

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append(CheckResult(self.name, name, bool(passed), detail))

    def check_all(self, name: str, failures: list[str], total: int) -> None:
        if failures:
            self.check(name, False, f"{len(failures)}/{total} failed; first: {failures[0]}")
        else:
            self.check(name, True, f"{total} cases")

    def tally(self, fails: dict[str, list[str]], total: int) -> None:
        """One check per law, each law's failures out of the same total."""
        for name, failures in fails.items():
            self.check_all(name, failures, total)


SUITES: dict[str, Callable[[int], list[CheckResult]]] = {}


def _suite(name: str):
    """Register a suite body ``(s, rng)`` under ``name``, in definition order.

    The decorated name is the suite's runner ``(seed=0) -> list[CheckResult]``.
    A law whose library call raises a ``MonadicaError`` ends its suite with
    the failed check ``raised``; the other suites still run.
    """

    def register(body: Callable[[_Suite, random.Random], None]):
        def run(seed: int = 0) -> list[CheckResult]:
            s = _Suite(name)
            try:
                body(s, random.Random(seed))
            except MonadicaError as exc:
                s.check("raised", False, f"{type(exc).__name__}: {exc}")
            return s.results

        run.__name__ = run.__qualname__ = body.__name__
        SUITES[name] = run
        return run

    return register


# -- comparison helpers -----------------------------------------------------------


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def coeff_close(x: GeneralizedReal, y: GeneralizedReal, tol: float) -> bool:
    for gid in set(x.dpart) | set(y.dpart):
        if not close(x.coefficient(gid), y.coefficient(gid), tol):
            return False
    return True


def value_close(x: GeneralizedReal, y: GeneralizedReal, tol: float) -> bool:
    return close(x.shadow, y.shadow, tol) and coeff_close(x, y, tol)


# -- random data ---------------------------------------------------------------------


_GEN_IDS = ("e:1", "e:2", "e:3", "e:4", "h", "g:0.5")


def _dyadic(rng: random.Random, scale: float = 8.0) -> float:
    return rng.randint(-1024, 1024) / 1024.0 * scale


def rand_value(
    rng: random.Random,
    *,
    shadow: float | None = None,
    max_terms: int = 3,
    dyadic: bool = False,
) -> GeneralizedReal:
    if shadow is None:
        shadow = _dyadic(rng) if dyadic else rng.uniform(-8.0, 8.0)
    coeffs = {}
    for gid in rng.sample(_GEN_IDS, rng.randint(0, max_terms)):
        coeffs[gid] = _dyadic(rng, 4.0) if dyadic else rng.uniform(-4.0, 4.0)
    return make(shadow, coeffs)


def rand_infinitesimal(rng: random.Random, dyadic: bool = False) -> GeneralizedReal:
    v = rand_value(rng, shadow=0.0, max_terms=3, dyadic=dyadic)
    if v.is_real:
        v = make(0.0, {rng.choice(_GEN_IDS): 1.0})
    return v


_GRID = [k / 2.0 for k in range(-8, 9)]


def rand_realset(rng: random.Random) -> RealSet:
    ints = []
    for _ in range(rng.randint(0, 3)):
        a, b = sorted(rng.sample(_GRID, 2)) if rng.random() < 0.9 else [rng.choice(_GRID)] * 2
        ints.append(Interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
    pts = rng.sample(_GRID, rng.randint(0, 2))
    return RealSet(tuple(ints), tuple(pts))


# -- independent topology oracle ---------------------------------------------------


def _breakpoints(s: RealSet) -> list[float]:
    """The sorted finite endpoints and points of s; between two neighbours,
    and beyond the outermost, membership in s does not change."""
    return sorted(
        {iv.lo for iv in s.intervals if math.isfinite(iv.lo)}
        | {iv.hi for iv in s.intervals if math.isfinite(iv.hi)}
        | set(s.points)
    )


def topo_oracle(s: RealSet, op: str) -> RealSet:
    """Grid-based reconstruction of a topology operator from membership alone."""
    grid = _breakpoints(s)
    cells = []
    if grid:
        cells.append((-_INF, grid[0]))
        cells.extend((grid[i], grid[i + 1]) for i in range(len(grid) - 1))
        cells.append((grid[-1], _INF))
    else:
        cells.append((-_INF, _INF))

    def mid(cell):
        a, b = cell
        if math.isinf(a) and math.isinf(b):
            return 0.0
        if math.isinf(a):
            return b - 1.0
        if math.isinf(b):
            return a + 1.0
        return (a + b) / 2.0

    cell_in = [s.contains(mid(c)) for c in cells]
    pt_in = [s.contains(p) for p in grid]

    if op == "interior":
        ints = [Interval(a, b, False, False) for (a, b), m in zip(cells, cell_in) if m]
        pts = [
            p
            for i, p in enumerate(grid)
            if pt_in[i] and cell_in[i] and cell_in[i + 1]
        ]
        return RealSet(tuple(ints), tuple(pts))
    if op == "closure":
        ints = [
            Interval(a, b, math.isfinite(a), math.isfinite(b))
            for (a, b), m in zip(cells, cell_in)
            if m
        ]
        pts = [p for i, p in enumerate(grid) if pt_in[i]]
        return RealSet(tuple(ints), tuple(pts))
    if op == "boundary":
        pts = []
        for i, p in enumerate(grid):
            in_closure = pt_in[i] or cell_in[i] or cell_in[i + 1]
            in_interior = pt_in[i] and cell_in[i] and cell_in[i + 1]
            if in_closure and not in_interior:
                pts.append(p)
        return RealSet((), tuple(pts))
    if op == "exterior":
        ints = [
            Interval(a, b, False, False) for (a, b), m in zip(cells, cell_in) if not m
        ]
        pts = [
            p
            for i, p in enumerate(grid)
            if not pt_in[i] and not cell_in[i] and not cell_in[i + 1]
        ]
        return RealSet(tuple(ints), tuple(pts))
    raise ValueError(op)


def connected_oracle(s: RealSet) -> bool:
    grid = _breakpoints(s)
    flags: list[bool] = []
    if not grid:
        flags = [s.contains(0.0)]
    else:
        flags.append(s.contains(grid[0] - 1.0))
        for i, p in enumerate(grid):
            flags.append(s.contains(p))
            nxt = grid[i + 1] if i + 1 < len(grid) else grid[i] + 1.0
            flags.append(s.contains((p + nxt) / 2.0))
    runs = 0
    prev = False
    for f in flags:
        if f and not prev:
            runs += 1
        prev = f
    return runs <= 1


# -- criterion 1: primitive identities ------------------------------------------------


@_suite("identities")
def check_identities(s: _Suite, rng: random.Random) -> None:
    tol = 1e-12
    eps_values = [
        make(0.0, {"e:1": 1.0}),
        make(0.0, {"e:2": 2.5, "h": -1.0}),
        make(0.0, {"e:3": -0.125, "g:0.5": 3.0}),
    ]
    exp_f = NaturalExtension.on_interval(Exp(Var()))
    log_f = NaturalExtension.on_interval(Log(Var()), 0.0, _INF)
    sin_f = NaturalExtension.on_interval(Sin(Var()))
    cos_f = NaturalExtension.on_interval(Cos(Var()))
    for i, eps in enumerate(eps_values):
        one_plus = core.add(1.0, eps)
        s.check(
            f"exp_of_infinitesimal_{i}",
            value_close(exp_f.eval_at(eps), core.add(1.0, eps), tol),
        )
        s.check(
            f"log_of_one_plus_infinitesimal_{i}",
            value_close(log_f.eval_at(one_plus), eps, tol),
        )
        s.check(f"sin_of_infinitesimal_{i}", value_close(sin_f.eval_at(eps), eps, tol))
        s.check(
            f"cos_of_infinitesimal_{i}",
            value_close(cos_f.eval_at(eps), core.ONE, tol),
        )
        for alpha in (-1.0, 0.5, 2.0, math.pi):
            pow_f = NaturalExtension.on_interval(PowReal(Var(), alpha), 0.0, _INF)
            expected = core.add(1.0, core.mul(alpha, eps))
            s.check(
                f"power_{alpha!r}_of_one_plus_infinitesimal_{i}",
                value_close(pow_f.eval_at(one_plus), expected, tol),
            )


# -- criterion 2: ring and order --------------------------------------------------------


@_suite("ring")
def check_ring(s: _Suite, rng: random.Random) -> None:
    tol = 1e-12
    n = 1000
    fails: dict[str, list[str]] = {
        k: []
        for k in (
            "add_commutes",
            "mul_commutes",
            "add_associates",
            "mul_associates",
            "distributes",
            "identities",
            "trichotomy",
            "order_add_compatible",
            "order_mul_compatible",
            "infinitesimal_between",
            "decomposition",
            "shadow_homomorphism",
        )
    }
    for _ in range(n):
        x = rand_value(rng, dyadic=True)
        y = rand_value(rng, dyadic=True)
        z = rand_value(rng, dyadic=True)
        tag = f"x={x}, y={y}, z={z}"
        if core.add(x, y) != core.add(y, x):
            fails["add_commutes"].append(tag)
        if core.mul(x, y) != core.mul(y, x):
            fails["mul_commutes"].append(tag)
        if not value_close(core.add(core.add(x, y), z), core.add(x, core.add(y, z)), tol):
            fails["add_associates"].append(tag)
        if not value_close(core.mul(core.mul(x, y), z), core.mul(x, core.mul(y, z)), tol):
            fails["mul_associates"].append(tag)
        lhs = core.mul(x, core.add(y, z))
        rhs = core.add(core.mul(x, y), core.mul(x, z))
        if not value_close(lhs, rhs, tol):
            fails["distributes"].append(tag)
        if core.add(x, core.ZERO) != x or core.mul(x, core.ONE) != x:
            fails["identities"].append(tag)
        outcomes = sum(
            (core.lt(x, y), core.indiscernible(x, y), core.lt(y, x))
        )
        if outcomes != 1:
            fails["trichotomy"].append(tag)
        if core.lt(x, y):
            if not core.lt(core.add(x, z), core.add(y, z)):
                fails["order_add_compatible"].append(tag)
            if core.sigma(z) > 0 and not core.lt(core.mul(x, z), core.mul(y, z)):
                fails["order_mul_compatible"].append(tag)
        eps = rand_infinitesimal(rng, dyadic=True)
        pos = abs(_dyadic(rng)) + 0.5
        if not (core.lt(eps, pos) and core.lt(-pos, eps)):
            fails["infinitesimal_between"].append(tag)
        if make(core.sigma(x), x.dpart) != x or core.differential(
            core.differential(x)
        ) != core.differential(x):
            fails["decomposition"].append(tag)
        if core.sigma(core.mul(x, y)) != core.sigma(x) * core.sigma(y) or core.sigma(
            core.add(x, y)
        ) != core.sigma(x) + core.sigma(y):
            fails["shadow_homomorphism"].append(tag)
    s.tally(fails, n)

    nil_fails = []
    for _ in range(n):
        e1 = rand_infinitesimal(rng)
        e2 = rand_infinitesimal(rng)
        if core.mul(e1, e1) != core.ZERO or core.mul(e1, e2) != core.ZERO:
            nil_fails.append(f"e1={e1}, e2={e2}")
    s.check_all("nilpotency_structural", nil_fails, n)

    inv_fails = []
    for _ in range(n):
        x = rand_value(rng)
        while abs(x.shadow) < 0.25:
            x = rand_value(rng)
        if not value_close(core.mul(x, core.inv(x)), core.ONE, tol):
            inv_fails.append(f"x={x}")
    s.check_all("inverse_round_trip", inv_fails, n)


# -- criterion 3: termwise oracle ----------------------------------------------------


@_suite("oracle")
def check_oracle(s: _Suite, rng: random.Random) -> None:
    tol = 1e-12
    n = 500
    terms = 64
    fails: dict[str, list[str]] = {k: [] for k in ("add", "mul", "inv", "pow")}

    def matches(result: GeneralizedReal, oracle_prefix: list[float]) -> bool:
        got = seq.prefix(result, terms)
        return all(close(a, b, tol) for a, b in zip(got, oracle_prefix))

    for _ in range(n):
        x = rand_value(rng)
        y = rand_value(rng)
        if not matches(core.add(x, y), seq.oracle_binary("add", x, y, terms)):
            fails["add"].append(f"x={x}, y={y}")
        if not matches(core.mul(x, y), seq.oracle_binary("mul", x, y, terms)):
            fails["mul"].append(f"x={x}, y={y}")
        w = rand_value(rng, shadow=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 8.0))
        if not matches(core.inv(w), seq.oracle_inv(w, terms)):
            fails["inv"].append(f"x={w}")
        m = rng.choice((2, 3))
        if not matches(core.pow_nat(x, m), seq.oracle_pow_nat(x, m, terms)):
            fails["pow"].append(f"x={x}, m={m}")
    s.tally(fails, n)


# -- criterion 4: differential rules ---------------------------------------------------


@_suite("differential")
def check_differential(s: _Suite, rng: random.Random) -> None:
    tol = 1e-12
    n = 500
    fails: dict[str, list[str]] = {
        k: [] for k in ("sum", "difference", "product", "power", "inverse", "quotient", "root")
    }
    for _ in range(n):
        x = rand_value(rng)
        y = rand_value(rng)
        dx, dy = core.differential(x), core.differential(y)
        sx, sy = core.sigma(x), core.sigma(y)
        tag = f"x={x}, y={y}"
        if core.differential(core.add(x, y)) != core.add(dx, dy):
            fails["sum"].append(tag)
        if core.differential(core.sub(x, y)) != core.sub(dx, dy):
            fails["difference"].append(tag)
        want = core.add(core.mul(sx, dy), core.mul(sy, dx))
        if core.differential(core.mul(x, y)) != want:
            fails["product"].append(tag)
        m = rng.randint(1, 5)
        want = core.mul(m * sx ** (m - 1), dx)
        if not value_close(core.differential(core.pow_nat(x, m)), want, tol):
            fails["power"].append(f"{tag}, m={m}")
        w = x if abs(sx) >= 0.25 else core.add(x, 1.0 + abs(sx))
        sw, dw = core.sigma(w), core.differential(w)
        want = core.mul(-1.0 / (sw * sw), dw)
        if not value_close(core.differential(core.inv(w)), want, tol):
            fails["inverse"].append(tag)
        want = core.mul(
            1.0 / (sw * sw), core.sub(core.mul(sw, dy), core.mul(sy, dw))
        )
        if not value_close(core.differential(core.div(y, w)), want, tol):
            fails["quotient"].append(tag)
        p = core.add(x, abs(sx) + 0.5)  # positive shadow
        m = rng.randint(2, 4)
        rt = core.root(p, m)
        want = core.mul(1.0 / (m * core.sigma(rt) ** (m - 1)), core.differential(p))
        if not value_close(core.differential(rt), want, tol):
            fails["root"].append(f"{tag}, m={m}")
    s.tally(fails, n)


# -- criterion 5: monads, shadows, topology ---------------------------------------------


@_suite("sets")
def check_sets(s: _Suite, rng: random.Random) -> None:
    n = 200
    fails: dict[str, list[str]] = {
        k: []
        for k in (
            "monad_shadow_round_trip",
            "monad_injective",
            "monad_boolean_ops",
            "monad_families",
            "shadow_boolean_ops",
            "shadow_families",
            "topology_commutes",
            "shadow_topology_mirror",
            "topology_predicates",
            "membership",
            "interval_classification",
        )
    }
    ops = ("interior", "exterior", "boundary", "closure")
    for _ in range(n):
        a = rand_realset(rng)
        b = rand_realset(rng)
        fam = [rand_realset(rng) for _ in range(3)]
        tag = f"A={sets.realset_to_dict(a)}, B={sets.realset_to_dict(b)}"

        if shadow(monad(a)) != a or monad(shadow(monad(a))) != monad(a):
            fails["monad_shadow_round_trip"].append(tag)
        if (a == b) != (monad(a) == monad(b)):
            fails["monad_injective"].append(tag)
        ok = (
            monad(a.union(b)) == sets.union(monad(a), monad(b))
            and monad(a.intersect(b)) == sets.intersect(monad(a), monad(b))
            and monad(a.difference(b)) == sets.difference(monad(a), monad(b))
        )
        if not ok:
            fails["monad_boolean_ops"].append(tag)
        un, it = fam[0], fam[0]
        gun, git = monad(fam[0]), monad(fam[0])
        for member_set in fam[1:]:
            un = un.union(member_set)
            it = it.intersect(member_set)
            gun = sets.union(gun, monad(member_set))
            git = sets.intersect(git, monad(member_set))
        if monad(un) != gun or monad(it) != git:
            fails["monad_families"].append(tag)
        ok = (
            shadow(sets.intersect(monad(a), monad(b))) == a.intersect(b)
            and shadow(sets.difference(monad(a), monad(b))) == a.difference(b)
            and shadow(sets.union(monad(a), monad(b))) == a.union(b)
        )
        if not ok:
            fails["shadow_boolean_ops"].append(tag)
        if shadow(gun) != un or shadow(git) != it:
            fails["shadow_families"].append(tag)
        for op in ops:
            if sets.topo(op, monad(a)) != monad(topo_oracle(a, op)):
                fails["topology_commutes"].append(f"{op}: {tag}")
                break
            if shadow(sets.topo(op, monad(a))) != topo_oracle(a, op):
                fails["shadow_topology_mirror"].append(f"{op}: {tag}")
                break
        ok = (
            sets.is_open(monad(a)) == (topo_oracle(a, "interior") == a)
            and sets.is_closed(monad(a)) == (topo_oracle(a, "closure") == a)
            and sets.is_compact(monad(a))
            == ((topo_oracle(a, "closure") == a) and a.is_bounded)
            and sets.is_connected(monad(a)) == connected_oracle(a)
        )
        if not ok:
            fails["topology_predicates"].append(tag)
        p = rng.choice(_GRID)
        probe = make(p, {"e:1": 1.0})
        if sets.member(probe, monad(a)) != a.contains(p):
            fails["membership"].append(f"{tag}, p={p}")

        alpha, beta = sorted((rng.choice(_GRID), rng.choice(_GRID)))
        alpha2, beta2 = sorted((rng.choice(_GRID), rng.choice(_GRID)))
        if not _interval_classification_ok(alpha, beta, alpha2, beta2):
            fails["interval_classification"].append(
                f"({alpha},{beta}) vs ({alpha2},{beta2})"
            )
    s.tally(fails, n)


def _interval_classification_ok(a: float, b: float, a2: float, b2: float) -> bool:
    closed1, closed2 = hat_interval("closed", a, b), hat_interval("closed", a2, b2)
    if (closed1 == closed2) != ((a, b) == (a2, b2)):
        return False
    for kind in ("open", "half_lo", "half_hi"):
        g1, g2 = hat_interval(kind, a, b), hat_interval(kind, a2, b2)
        same_endpoints = (a, b) == (a2, b2)
        both_empty = a == b and a2 == b2
        if (g1 == g2) != (same_endpoints or both_empty):
            return False
    if a < b:
        kinds = ("closed", "open", "half_lo", "half_hi")
        made = [hat_interval(k, a, b) for k in kinds]
        for i in range(len(made)):
            for j in range(i + 1, len(made)):
                if made[i] == made[j]:
                    return False
        if hat_interval("ray_ge", a) == hat_interval("closed", a, b):
            return False
    else:  # a == b: degenerate row
        for kind in ("open", "half_lo", "half_hi"):
            if hat_interval(kind, a, a) != monad(RealSet.empty()):
                return False
        if hat_interval("closed", a, a) != monad(RealSet.point(a)):
            return False
    for kind in ("closed", "open", "half_lo", "half_hi"):
        if sets.length(hat_interval(kind, a, b)) != b - a:
            return False
    # monads of endpoints sit inside the closed interval; adjacent closed
    # intervals meet exactly in the shared endpoint's monad
    closed = hat_interval("closed", a, b)
    if sets.intersect(monad(RealSet.point(a)), closed) != monad(RealSet.point(a)):
        return False
    c = b + 1.0
    meet = sets.intersect(closed, hat_interval("closed", b, c))
    return meet == monad(RealSet.point(b))


# -- criterion 6: completeness ---------------------------------------------------------


@_suite("completeness")
def check_completeness(s: _Suite, rng: random.Random) -> None:
    n = 200
    fails: dict[str, list[str]] = {
        k: [] for k in ("real_supremum", "real_infimum", "attained_extrema", "upper_bounds")
    }
    for _ in range(n):
        comps = []  # (lo, hi, attained_lo, attained_hi) contributions
        ints = []
        pts = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                p = rng.choice(_GRID)
                pts.append(p)
                comps.append((p, p, True, True))
            else:
                a, b = sorted(rng.sample(_GRID, 2))
                lc, hc = rng.random() < 0.5, rng.random() < 0.5
                ints.append(Interval(a, b, lc, hc))
                comps.append((a, b, lc, hc))
        made = RealSet(tuple(ints), tuple(pts))
        expected_sup = max(c[1] for c in comps)
        expected_inf = min(c[0] for c in comps)
        sup_attained = any(c[1] == expected_sup and c[3] for c in comps)
        inf_attained = any(c[0] == expected_inf and c[2] for c in comps)
        g = monad(made)
        tag = f"S={sets.realset_to_dict(made)}"
        if sets.sup_r(g) != expected_sup:
            fails["real_supremum"].append(tag)
        if sets.inf_r(g) != expected_inf:
            fails["real_infimum"].append(tag)
        want_max = expected_sup if sup_attained else None
        want_min = expected_inf if inf_attained else None
        if sets.max_r(g) != want_max or sets.min_r(g) != want_min:
            fails["attained_extrema"].append(tag)
        ub = make(expected_sup, {"e:1": rng.uniform(-2, 2)})
        not_ub = make(expected_sup - 0.25)
        if not sets.is_upper_bound(ub, g) or sets.is_upper_bound(not_ub, g):
            fails["upper_bounds"].append(tag)
    s.tally(fails, n)


# -- criterion 7: derivative engine ------------------------------------------------------


def _rand_poly(rng: random.Random, degree: int = 3, scale: float = 0.5) -> Expr:
    e: Expr = Const(_dyadic(rng, scale))
    for k in range(1, degree + 1):
        c = _dyadic(rng, scale)
        if c != 0.0:
            e = e + Const(c) * pow_int(Var(), k)
    return e


def _rand_smooth(rng: random.Random) -> Expr:
    kind = rng.randrange(5)
    if kind == 0:
        return _rand_poly(rng)
    if kind == 1:
        return Const(_dyadic(rng, 2.0)) * Sin(Const(rng.choice((0.5, 1.0, 2.0))) * Var()) + Const(
            _dyadic(rng, 2.0)
        )
    if kind == 2:
        return Const(_dyadic(rng, 2.0)) * Cos(Var()) + Const(_dyadic(rng, 2.0))
    if kind == 3:
        return Exp(Const(rng.choice((-0.5, 0.25, 0.5))) * Var())
    return Const(_dyadic(rng, 2.0)) * Var() + Const(_dyadic(rng, 2.0))


def _rand_expression(rng: random.Random) -> Expr:
    a, b = _rand_smooth(rng), _rand_smooth(rng)
    kind = rng.randrange(5)
    if kind == 0:
        return a + b
    if kind == 1:
        return a * b
    if kind == 2:
        return a / (Const(3.0) + Sin(Var()))
    if kind == 3:
        return Log(Const(3.0) + Sin(Var()))
    return Root(Const(3.0) + Cos(Var()), 2)


@_suite("derivative")
def check_derivative(s: _Suite, rng: random.Random) -> None:
    n = 200
    chain_fails, homo_fails, quot_fails = [], [], []
    for _ in range(n):
        inner = NaturalExtension.on_interval(_rand_smooth(rng), -2.0, 2.0)
        outer = NaturalExtension.on_interval(_rand_smooth(rng))
        composite = calculus.compose_ext(outer, inner)
        x = rand_value(rng, shadow=rng.uniform(-1.9, 1.9))
        inner_value = inner.expr.eval_real(x.shadow)
        got = composite.deriv_at(x)
        want = outer.deriv_at(make(inner_value)) * inner.deriv_at(x)
        if not close(got, want, 1e-9):
            chain_fails.append(f"x={x}")

        e = _rand_expression(rng)
        f = NaturalExtension.on_interval(e, -2.0, 2.0)
        x = rand_value(rng, shadow=rng.uniform(-1.9, 1.9))
        if not value_close(gen_eval(e, x), f.eval_at(x), 1e-9):
            homo_fails.append(f"x={x}, e={e}")

        xi = rng.uniform(-1.8, 1.8)
        h = 1e-6
        quotient = (e.eval_real(xi + h) - e.eval_real(xi - h)) / (2 * h)
        lam = f.deriv.eval_real(xi)
        if abs(lam - quotient) > 1e-5 * max(1.0, abs(lam)):
            quot_fails.append(f"xi={xi}, e={e}")
    s.check_all("chain_rule", chain_fails, n)
    s.check_all("structural_matches_extension", homo_fails, n)
    s.check_all("derivative_vs_difference_quotient", quot_fails, n)

    # extension contract at real points and shadow agreement
    contract_fails = []
    for _ in range(100):
        e = _rand_expression(rng)
        f = NaturalExtension.on_interval(e, -2.0, 2.0)
        xi = rng.uniform(-1.9, 1.9)
        x = rand_value(rng, shadow=rng.uniform(-1.9, 1.9))
        at_real = f.eval_at(make(xi))
        if not (at_real.is_real and at_real.shadow == e.eval_real(xi)):
            contract_fails.append(f"xi={xi}")
        if core.sigma(f.eval_at(x)) != e.eval_real(x.shadow):
            contract_fails.append(f"x={x}")
    s.check_all("extension_contract", contract_fails, 200)

    # impulse probe pins the slope uniquely
    unique_fails = []
    for _ in range(50):
        alpha, beta = rng.uniform(-3, 3), rng.uniform(-3, 3)
        if alpha == beta:
            continue
        probe = make(0.0, {"e:1": 1.0})
        va = core.add(1.0, core.mul(alpha, probe))
        vb = core.add(1.0, core.mul(beta, probe))
        if (va == vb) != (alpha == beta):
            unique_fails.append(f"alpha={alpha}, beta={beta}")
    s.check_all("slope_uniqueness_probe", unique_fails, 50)

    # monotonicity transfer
    mono_fails = []
    for f, rising in (
        (NaturalExtension.on_interval(Exp(Var())), True),
        (NaturalExtension.on_interval(pow_int(Var(), 3) + Var(), -2.0, 2.0), True),
        (NaturalExtension.on_interval(Neg(Exp(Var()))), False),
    ):
        shadows = sorted(rng.uniform(-1.9, 1.9) for _ in range(20))
        values = [f.eval_at(rand_value(rng, shadow=t)) for t in shadows]
        for u, v in zip(values, values[1:]):
            lower, upper = (u, v) if rising else (v, u)
            if not core.lt(lower, upper):
                mono_fails.append(f"{lower} !< {upper}")
    const_f = NaturalExtension.on_interval(Const(2.5))
    for _ in range(20):
        if const_f.eval_at(rand_value(rng)) != make(2.5):
            mono_fails.append("constant function moved")
    s.check_all("monotonicity_and_constancy", mono_fails, 77)

    # trig and exponential functional identities at coefficient level
    ident_fails = []
    sin_e, cos_e, exp_e = Sin(Var()), Cos(Var()), Exp(Var())
    for _ in range(100):
        x1 = rand_value(rng, shadow=rng.uniform(-3, 3))
        x2 = rand_value(rng, shadow=rng.uniform(-3, 3))
        tau = 2.0 * math.pi
        if not value_close(
            gen_eval(sin_e, core.add(x1, tau)), gen_eval(sin_e, x1), 1e-12
        ):
            ident_fails.append(f"periodicity x={x1}")
        if not value_close(
            gen_eval(cos_e, core.neg(x1)), gen_eval(cos_e, x1), 1e-12
        ) or not value_close(
            gen_eval(sin_e, core.neg(x1)), core.neg(gen_eval(sin_e, x1)), 1e-12
        ):
            ident_fails.append(f"parity x={x1}")
        lhs = gen_eval(sin_e, core.add(x1, x2))
        rhs = core.add(
            core.mul(gen_eval(sin_e, x1), gen_eval(cos_e, x2)),
            core.mul(gen_eval(sin_e, x2), gen_eval(cos_e, x1)),
        )
        if not value_close(lhs, rhs, 1e-12):
            ident_fails.append(f"sin addition x1={x1}, x2={x2}")
        lhs = gen_eval(cos_e, core.sub(x1, x2))
        rhs = core.add(
            core.mul(gen_eval(cos_e, x1), gen_eval(cos_e, x2)),
            core.mul(gen_eval(sin_e, x1), gen_eval(sin_e, x2)),
        )
        if not value_close(lhs, rhs, 1e-12):
            ident_fails.append(f"cos subtraction x1={x1}, x2={x2}")
        lhs = core.mul(gen_eval(exp_e, x1), gen_eval(exp_e, x2))
        if not value_close(lhs, gen_eval(exp_e, core.add(x1, x2)), 1e-12):
            ident_fails.append(f"exp product x1={x1}, x2={x2}")
        pos = make(abs(x1.shadow) + 0.5, dict(x1.dpart))
        alpha = rng.choice((-1.0, 0.5, 1.5, math.pi))
        via_pow = gen_eval(PowReal(Var(), alpha), pos)
        via_exp_log = gen_eval(Exp(Const(alpha) * Log(Var())), pos)
        if not value_close(via_pow, via_exp_log, 1e-9):
            ident_fails.append(f"power as exp-log x={pos}, alpha={alpha}")
    # six comparisons per case
    s.check_all("functional_identities", ident_fails, 600)

    # range identities on sampled generating intervals
    image_fails = []
    exp_f = NaturalExtension.on_interval(Exp(Var()))
    log_f = NaturalExtension.on_interval(Log(Var()), 0.0, _INF)
    for bound in (1.0, 2.0, 3.0):
        got = image_set(exp_f, monad(RealSet.open(-bound, bound)))
        want = monad(RealSet.open(math.exp(-bound), math.exp(bound)))
        if got != want:
            image_fails.append(f"exp on (-{bound}, {bound})")
        got = image_set(log_f, monad(RealSet.open(1.0 / bound, bound + 1.0)))
        want = monad(RealSet.open(math.log(1.0 / bound), math.log(bound + 1.0)))
        if got != want:
            image_fails.append(f"log on (1/{bound}, {bound + 1.0})")
    sin_f = NaturalExtension.on_interval(Sin(Var()))
    got = image_set(sin_f, monad(RealSet.closed(-math.pi / 2, 3 * math.pi / 2)))
    want = GeneralizedSet(RealSet.open(-1.0, 1.0), (-1.0, 1.0))
    if got != want:
        image_fails.append("sine over one period")
    square_f = NaturalExtension.on_interval(pow_int(Var(), 2))
    got = image_set(square_f, monad(RealSet.closed(-1.0, 1.0)))
    want = GeneralizedSet(RealSet.interval(0.0, 1.0, False, True), (0.0,))
    if got != want:
        image_fails.append("square over [-1, 1]")
    s.check_all("range_identities", image_fails, 8)

    # inversion: exp inverts to the log extension
    inv_fails = []
    log_like = inverse_extension(exp_f)
    probe = make(1.0, {"e:1": 1.0})
    if not value_close(log_like.eval_at(probe), make(0.0, {"e:1": 1.0}), 1e-9):
        inv_fails.append("inverse of exp at 1+dx")
    if not close(log_like.deriv_at(make(math.e)), 1.0 / math.e, 1e-9):
        inv_fails.append("inverse derivative at e")
    s.check_all("inverse_extension", inv_fails, 2)


# -- criterion 8: Taylor ------------------------------------------------------------------


def _taylor_family(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return NaturalExtension.on_interval(Exp(Const(0.5) * Var()))
    if kind == 1:
        return NaturalExtension.on_interval(Sin(Var()))
    if kind == 2:
        return NaturalExtension.on_interval(_rand_poly(rng, degree=4))
    return NaturalExtension.on_interval(PowReal(Var(), 1.5), 0.0, _INF)


@_suite("taylor")
def check_taylor(s: _Suite, rng: random.Random) -> None:
    exp_f = NaturalExtension.on_interval(Exp(Var()))
    result = taylor_expand(exp_f, 0.0, 3, make(0.5, {"e:1": 1.0}))
    s.check(
        "exp_partial_sum",
        abs(result.partial_sum - 1.6458333333333333) <= 1e-7,
        f"partial={result.partial_sum!r}",
    )
    theta_ok = result.theta is not None and 0.0 < result.theta < 1.0
    s.check(
        "exp_theta_witness",
        theta_ok and abs(result.theta - 0.2068) <= 1e-3,
        f"theta={result.theta!r}",
    )
    if theta_ok:
        lhs = math.exp(0.5)
        rhs = result.partial_sum + 0.5**4 / 24.0 * math.exp(0.5 * result.theta)
        s.check("exp_lagrange_identity", abs(lhs - rhs) <= 1e-10, f"residual={lhs - rhs!r}")
    else:
        s.check("exp_lagrange_identity", False, "no theta found")

    bound_fails = []
    for _ in range(100):
        f = _taylor_family(rng)
        wlo, whi = max(f.lo, -3.0), min(f.hi, 3.0)
        if wlo >= whi:
            wlo, whi = 0.1, 3.0
        center = rng.uniform(wlo + 0.05, whi - 0.05)
        sx = rng.uniform(wlo + 0.05, whi - 0.05)
        if abs(sx - center) < 1e-3:
            sx = center + 0.25 if center + 0.25 < whi else center - 0.25
        order = rng.randint(0, 4)
        x = rand_value(rng, shadow=sx)
        res = taylor_expand(f, center, order, x)
        target = f.expr.eval_real(sx)
        slack = 1e-12 * max(1.0, abs(target), abs(res.partial_sum))
        if abs(target - res.partial_sum) > res.remainder_bound * (1 + 1e-9) + slack:
            bound_fails.append(f"f={f.expr}, center={center}, order={order}, sx={sx}")
            continue
        if res.theta is not None:
            lam_top = f.deriv_exprs(order + 1)[order + 1]
            h = sx - center
            rhs = res.partial_sum + h ** (order + 1) / math.factorial(
                order + 1
            ) * lam_top.eval_real(center + res.theta * h)
            if abs(target - rhs) > 1e-10 * max(1.0, abs(target)):
                bound_fails.append(f"lagrange residual f={f.expr}, theta={res.theta}")
    s.check_all("lagrange_bound_and_witness", bound_fails, 100)


# -- criterion 9: mean value --------------------------------------------------------------


@_suite("mvt")
def check_mvt(s: _Suite, rng: random.Random) -> None:
    n = 100
    nonreal_fails, real_fails = [], []
    for _ in range(n):
        f = NaturalExtension.on_interval(_rand_smooth(rng), -3.0, 3.0)
        sa = rng.uniform(-2.8, 2.0)
        sb = sa + rng.uniform(0.2, 0.8)
        a = core.add(sa, rand_infinitesimal(rng))  # endpoints are never real
        b = core.add(sb, rand_infinitesimal(rng))
        gamma = mean_value_point(f, a, b)
        if not (sa < gamma < sb):
            nonreal_fails.append(f"gamma={gamma} outside ({sa}, {sb})")
            continue
        slope_g = f.deriv.eval_real(gamma)
        lam_a, lam_b = f.deriv.eval_real(sa), f.deriv.eval_real(sb)
        lhs = core.sub(f.eval_at(b), f.eval_at(a))
        rhs = core.add(
            core.add(
                core.mul(slope_g, core.sub(b, a)),
                core.mul(lam_b - slope_g, core.differential(b)),
            ),
            core.mul(slope_g - lam_a, core.differential(a)),
        )
        if not (close(lhs.shadow, rhs.shadow, 1e-9) and coeff_close(lhs, rhs, 1e-12)):
            nonreal_fails.append(f"f={f.expr}, a={a}, b={b}, gamma={gamma}")

        gamma2 = mean_value_point(f, make(sa), make(sb))
        classical = f.expr.eval_real(sb) - f.expr.eval_real(sa)
        if not close(classical, f.deriv.eval_real(gamma2) * (sb - sa), 1e-9):
            real_fails.append(f"f={f.expr}, [{sa}, {sb}]")
    s.check_all("identity_with_nonreal_endpoints", nonreal_fails, n)
    s.check_all("classical_identity_with_real_endpoints", real_fails, n)


# -- criterion 10: singular equations -------------------------------------------------------


def _vee_solution() -> PiecewiseExtension:
    return PiecewiseExtension((0.0,), (Neg(Var()), Var()), (MonadRule(0.0, 1.0),))


def _vee_rhs() -> PiecewiseExtension:
    return PiecewiseExtension((0.0,), (Const(-1.0), Const(1.0)), (MonadRule(1.0, 0.0),))


def _step_solution() -> PiecewiseExtension:
    return PiecewiseExtension((0.0,), (Const(0.0), Const(1.0)), (MonadRule(1.0, 1.0),))


def _step_rhs() -> PiecewiseExtension:
    return PiecewiseExtension((0.0,), (Const(0.0), Const(0.0)), (MonadRule(1.0, 0.0),))


@_suite("ode")
def check_ode(s: _Suite, rng: random.Random) -> None:
    reports = calculus.ode_verify(_vee_solution(), _vee_rhs())
    s.check(
        "vee_solution_passes",
        all(r.passed for r in reports),
        "; ".join(f"{r.region}: {r.status}" for r in reports),
    )
    monad_report = [r for r in reports if r.region.startswith("monad")][0]
    s.check(
        "vee_monad_probe_reports_absent_limit",
        "classical limit absent" in monad_report.detail,
        monad_report.detail,
    )
    reports = calculus.ode_verify(_step_solution(), _step_rhs())
    s.check(
        "step_solution_passes",
        all(r.passed for r in reports),
        "; ".join(f"{r.region}: {r.status}" for r in reports),
    )
    wrong = PiecewiseExtension((0.0,), (Var(), Var()), (MonadRule(0.0, 1.0),))
    reports = calculus.ode_verify(wrong, _vee_rhs())
    s.check(
        "wrong_solution_fails_left_gap",
        (not reports[0].passed) and reports[1].passed,
        reports[0].detail,
    )

    absval = PiecewiseExtension((0.0,), (Neg(Var()), Var()), (MonadRule(0.0, 0.0),))
    alpha = absval.deriv_at(0.0)
    probe = absval.limit_probe(0.0)
    s.check(
        "absolute_value_derivative_zero",
        alpha == 0.0 and not probe.exists and "classical limit absent" in probe.detail,
        f"alpha={alpha}, {probe.detail}",
    )

    square = pow_int(Var(), 2)
    natural = PiecewiseExtension((3.0,), (square, square), (MonadRule(9.0, 6.0),))
    s.check("natural_rule_matches_limit", natural.deriv_at(3.0) == 6.0)
    bad = PiecewiseExtension((0.0,), (square, square), (MonadRule(0.0, 1.0),))
    try:
        bad.deriv_at(0.0)
        s.check("proviso_violation_detected", False, "no error raised")
    except ProvisoViolated as exc:
        s.check("proviso_violation_detected", True, str(exc))


# -- criterion 11: higher derivative patterns -------------------------------------------------


@_suite("higher")
def check_higher(s: _Suite, rng: random.Random) -> None:
    tol = 1e-12
    extensions = {
        "square": NaturalExtension.on_interval(pow_int(Var(), 2)),
        "exponential": NaturalExtension.on_interval(Exp(Var())),
        "sine": NaturalExtension.on_interval(Sin(Var())),
        "cosine": NaturalExtension.on_interval(Cos(Var())),
    }
    fails: dict[str, list[str]] = {name: [] for name in extensions}
    for _ in range(10):
        x = rand_value(rng, shadow=rng.uniform(-3, 3))
        t = x.shadow
        sn, cs, ex = math.sin(t), math.cos(t), math.exp(t)
        # the k-th derivative of each function at t
        derivative = {
            "square": lambda k: (t * t, 2 * t, 2.0)[k] if k < 3 else 0.0,
            "exponential": lambda k: ex,
            "sine": lambda k: (sn, cs, -sn, -cs)[k % 4],
            "cosine": lambda k: (cs, -sn, -cs, sn)[k % 4],
        }
        for m in range(1, 9):
            for name, f in extensions.items():
                d = derivative[name]
                want = make(d(m - 1), {g: d(m) * c for g, c in x.dpart.items()})
                if not value_close(f.eval_higher(m, x), want, tol) or not close(
                    f.deriv_higher(m, x), d(m), tol
                ):
                    fails[name].append(f"m={m}, x={x}")
    s.tally(fails, 80)


# -- sequence catalog invariants ---------------------------------------------------------------


@_suite("seq")
def check_seq(s: _Suite, rng: random.Random) -> None:
    catalog = seq.DEFAULT_CATALOG
    witness_fails = []
    for gid in catalog.ids:
        unit = make(0.0, {gid: 1.0})
        if seq.convergence_witness(unit, 1e-6, 10**7) is None:
            witness_fails.append(gid)
    s.check_all("catalog_convergence_witnesses", witness_fails, len(catalog.ids))

    gens = list(catalog.generators())
    rank_fails = []
    if seq.independence_rank(gens) != len(gens):
        rank_fails.append("full catalog")
    for _ in range(20):
        size = rng.randint(2, 8)
        subset = rng.sample(gens, size)
        if seq.independence_rank(subset) != size:
            rank_fails.append(",".join(g.id for g in subset))
    s.check_all("linear_independence", rank_fails, 21)

    s.check(
        "impulse_witness",
        seq.convergence_witness(make(2.0, {"e:1": 1.0}), 1e-9, 1024) == 2,
    )
    s.check(
        "harmonic_witness",
        seq.convergence_witness(make(0.0, {"h": 1.0}), 0.01, 1024) == 101,
    )
    s.check("constant_witness", seq.convergence_witness(make(5.0), 1e-12, 1024) == 1)


# -- running suites ------------------------------------------------------------------------------


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    try:
        fn = SUITES[name]
    except KeyError:
        raise MonadicaError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
        ) from None
    return fn(seed)


def run_all(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in SUITES:
        out.extend(run_suite(name, seed))
    return out
