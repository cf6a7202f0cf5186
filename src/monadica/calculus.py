"""Limit-free differential calculus over the generalized continuum.

A real function enters as an expression tree together with an open real
interval on which it (and its symbolic derivative) is valid.  Its natural
extension evaluates as

    value(shadow) + derivative(shadow) * dx,

which is the unique everywhere-differentiable extension.  Structural
evaluation of a whole tree over generalized values (``expr.gen_eval``) agrees
with the natural extension of the composite; Taylor expansion, the mean
value identity, function inversion, set images, and piecewise functions
with explicit monad rules are built on top.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from itertools import compress
from operator import itemgetter, sub
from typing import TYPE_CHECKING, Callable, Iterator

from . import core
from .core import GeneralizedReal, as_generalized
from .errors import (
    DomainError,
    MonadicaError,
    NotDifferentiable,
    NotInjective,
    OutOfDomain,
    ProvisoViolated,
    RegionMismatch,
    VanishingDerivative,
)
from .expr import Arithmetic, Const, Div, Expr, Var, _Orders, _value_at, compile_real, compose
from .expr import gen_eval  # noqa: F401  (re-exported: callers import it from here)

if TYPE_CHECKING:
    from .sets import GeneralizedSet

_INF = math.inf
_PROBE_WINDOW = 32.0
_PROBES = 129  # cells probed for validity by NaturalExtension.on_interval
_INVERSE_SAMPLES = 1024  # cells sampled for monotonicity by inverse_extension
_ODE_SAMPLES = 25  # points checked per gap by ode_verify
_ROOT_CELLS = 1024  # grid cells scanned for a sign change before bisecting
_COARSE_CELLS = 32  # cells _first_root scans first, nested in _ROOT_CELLS's
_ZERO_CELLS = 512  # grid cells scanned for zeros of the derivative in images


# -- sampling grids and roots --------------------------------------------------------


def _finite_window(lo: float, hi: float, reach: float) -> tuple[float, float]:
    """Clip an open interval to a finite window: (-reach, reach) when both
    ends are infinite, else 2 * reach wide from the finite end."""
    if math.isinf(lo) and math.isinf(hi):
        return -reach, reach
    if math.isinf(lo):
        return hi - 2.0 * reach, hi
    if math.isinf(hi):
        return lo, lo + 2.0 * reach
    return lo, hi


@functools.cache
def _unit(n: int, cells: bool = False) -> list[float]:
    """The n + 1 nodes i / n of the unit interval, or with cells the n cell
    midpoints (i + 0.5) / n, built once per n."""
    return [(i + 0.5) / n for i in range(n)] if cells else [i / n for i in range(n + 1)]


class _Nodes(core.Record):
    """The nodes lo + w * u over a unit table, each computed when read or
    iterated.  For a power-of-two n, i / n and (i + 0.5) / n are exact, so a
    node is the same float at any n that puts it on the table, and it is
    lo + w * i / n (a midpoint lo + w * (i + 0.5) / n) except where w / n is
    subnormal or w * (i + 0.5) overflows (a finite node here, inf there)."""

    __slots__ = ("lo", "w", "units")

    def __getitem__(self, i: int) -> float:
        return self.lo + self.w * self.units[i]


def _bisect(g, a: float, b: float, ga: float, tol: float = 0.0) -> tuple[float, float]:
    """A root of g in [a, b] and g there, given ga = g(a) and a sign change
    over [a, b].  Stops when |g(mid)| <= tol or the bracket is narrower than
    1e-15 * max(1, |mid|), which takes about 50 halvings of a unit bracket."""
    while True:
        mid = (a + b) / 2.0
        gm = g(mid)
        if abs(gm) <= tol or b - a < 1e-15 * max(1.0, abs(mid)):
            return mid, gm
        if (ga < 0.0) == (gm < 0.0):
            a, ga = mid, gm
        else:
            b = mid


def _sign_changes(vals: list[float], tol: float) -> Iterator[int]:
    """Lazily, each grid cell i whose end values vals[i] and vals[i + 1]
    exceed tol in size and differ in sign."""
    for i, ga, gb in zip(range(len(vals)), vals, vals[1:]):
        if ga * gb < 0.0 and abs(ga) > tol and abs(gb) > tol:
            yield i


def _crossings(g, xs, vals: list[float], tol: float) -> Iterator[float]:
    """Lazily, one bisected root of g per cell of ``_sign_changes`` (vals =
    g(xs)), kept only where |g| is no larger than at either end of its cell:
    toward a root |g| shrinks, and toward a pole, where g changes sign
    without a root, it grows."""
    for i in _sign_changes(vals, tol):
        ga, gb = vals[i], vals[i + 1]
        root, groot = _bisect(g, xs[i], xs[i + 1], ga, tol)
        if abs(groot) <= min(abs(ga), abs(gb)):
            yield root


# i / 32 and 32i / 1024 are the same float, so each _COARSE node is an _INNER node
_COARSE = _unit(_COARSE_CELLS)[1:-1]
_INNER = _unit(_ROOT_CELLS)[1:-1]


def _first_root(g, gaps, lo: float, w: float, tol: float) -> float | None:
    """A point strictly between lo and lo + w where |g| <= tol, given
    gaps(xs) = g at every node of xs, or None.  It scans the 31 inner nodes of 32
    equal cells, then, only when they show no point, the 1 023 inner nodes
    of 1 024 cells, which include those 31.  Each level takes the first node
    of least |g| (NaN is never least) if that is within tol, else the first
    bisected sign change that is a root (see ``_crossings``)."""
    for units in (_COARSE, _INNER):
        xs = _Nodes(lo, w, units)
        vals = gaps(xs)
        mags = list(map(abs, vals))
        least = min(filter(tol.__ge__, mags), default=None)
        if least is not None:
            return xs[mags.index(least)]
        root = next(_crossings(g, xs, vals, tol), None)
        if root is not None:
            return root
    return None


def _touch_zeros(f: NaturalExtension, xs, vals: list[float], tol: float) -> Iterator[float]:
    """Lazily, zeros of f' where f' need not change sign (vals = f'(xs)).
    At each grid minimum of |f'|, a sign change of f'' over the two
    neighbours is bisected, and the point is kept when |f'| <= tol there.
    Heuristic: only points where |f'| dips at a grid node are examined."""
    lam, curl = f.real_fn(1), f.real_fn(2)
    mags = list(map(abs, vals))
    last = len(vals) - 1
    nan = [math.nan]  # no neighbour: every comparison with it is false
    for i, before, m, after in zip(range(last + 1), nan + mags, mags, mags[1:] + nan):
        if before < m or after <= m:
            continue
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, last)]
        ca = curl(a)
        if ca * curl(b) < 0.0:
            z = _bisect(curl, a, b, ca)[0]
            if abs(lam(z)) <= tol:
                yield z


# -- natural extensions ----------------------------------------------------------


class NaturalExtension(core.Record):
    """A real function ``expr`` on the open interval ]lo, hi[ where it and
    its symbolic derivative are valid.

    ``real_fn`` compiles each derivative tree once (see
    ``expr.compile_real``), returning exactly what the tree walk
    ``eval_real`` would; sampling loops call the same kernel once per node
    table (``_sample``).
    """

    __slots__ = ("expr", "lo", "hi", "_orders", "_compiled", "_range")

    def __init__(self, expr: Expr, lo: float, hi: float) -> None:
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_orders", _Orders(expr))
        object.__setattr__(self, "_compiled", {})
        object.__setattr__(self, "_range", None)  # set once inverse_extension proves it

    @classmethod
    def on_interval(cls, expr: Expr, lo: float = -_INF, hi: float = _INF) -> "NaturalExtension":
        """Build the extension on the open interval (lo, hi), checking by
        sampling that the function and its derivative are valid there: each
        probe has a finite value and derivative."""
        if not isinstance(expr, Expr):
            raise DomainError(f"a function must be an expression, not {expr!r}")
        lo, hi = core._real(lo, "interval lo"), core._real(hi, "interval hi")
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise DomainError(f"invalid open interval ({lo}, {hi})")
        ext = cls(expr, lo + 0.0, hi + 0.0)  # no signed zero
        ext.real_fn(0), ext.real_fn(1)  # a tree with no derivative raises as it is
        wlo, whi = _finite_window(lo, hi, _PROBE_WINDOW)
        probes = _Nodes(wlo, whi - wlo, _unit(_PROBES, cells=True))
        invalid = f"function is not valid on ({lo}, {hi}): "
        try:
            values, slopes = ext._sample(0, probes), ext._sample(1, probes)
        except MonadicaError as exc:
            raise DomainError(invalid + str(exc)) from exc
        for xi, v, d in zip(probes, values, slopes):
            if not (math.isfinite(v) and math.isfinite(d)):
                raise DomainError(
                    f"{invalid}value {v!r} and derivative {d!r} at {xi!r} are not both finite"
                )
        return ext

    @property
    def deriv(self) -> Expr:
        """The symbolic derivative."""
        return self._orders[1]

    def real_fn(self, k: int) -> functools.partial:
        """The k-th derivative (k = 0 is the function) as a compiled function
        of one float, built on first use: the partial's one argument is its kernel."""
        fn = self._compiled.get(core._count(k, "derivative order", 0))
        if fn is None:
            fn = self._compiled[k] = compile_real(self._orders[k])
        return fn

    def _sample(self, k: int, nodes: _Nodes) -> list[float]:
        """The k-th derivative at every node, in one call of its kernel,
        which raises the error the first failing node raises in ``real_fn``."""
        out: list[float] = []
        try:
            self.real_fn(k).args[0](nodes.lo, nodes.w, nodes.units, out)
        except (OverflowError, ValueError) as exc:  # as in expr._value_at
            raise OutOfDomain(f"evaluation overflows at {nodes[len(out)]!r}") from exc
        return out

    def _require(self, s: float, what: str = "shadow") -> None:
        if not self.lo < s < self.hi:
            raise OutOfDomain(f"{what} {s!r} lies outside the domain")

    def _require_closure(self, a: float, b: float) -> None:
        if not (self.lo < a < self.hi and self.lo < b < self.hi):
            raise OutOfDomain(
                f"the closed interval [{a!r}, {b!r}] must lie inside the domain"
            )

    def eval_at(self, x) -> GeneralizedReal:
        """value(shadow) + derivative(shadow) * dx."""
        x = as_generalized(x)
        self._require(x.shadow)
        return core._tangent(x, self.real_fn(0)(x.shadow), self.real_fn(1)(x.shadow))

    def deriv_at(self, x) -> float:
        """The derivative, constant on each monad."""
        x = as_generalized(x)
        self._require(x.shadow)
        return self.real_fn(1)(x.shadow)

    def deriv_exprs(self, upto: int) -> list[Expr]:
        """[function, derivative, ..., upto-th derivative] as expressions.

        Each tree is differentiated once and kept (``expr._Orders``):
        repeated calls return the same objects."""
        upto = core._count(upto, "derivative order", 0)
        return [self._orders[k] for k in range(upto + 1)]

    def eval_higher(self, m: int, x) -> GeneralizedReal:
        """m-th extension: (m-1)-th derivative value plus m-th derivative
        times dx."""
        x, (value, slope) = self._top_derivs(m, "extension order", x, 2)
        return core._tangent(x, value, slope)

    def deriv_higher(self, m: int, x) -> float:
        """m-th derivative at the shadow of x (always a real)."""
        return self._top_derivs(m, "derivative order", x, 1)[1][0]

    def _top_derivs(self, m: int, what: str, x, count: int) -> tuple[GeneralizedReal, list]:
        """x as a value, and the derivatives of the top ``count`` orders up
        to m (an order >= 1 that ``what`` names) at its shadow."""
        m = core._count(m, what, 1)
        x = as_generalized(x)
        self._require(x.shadow)
        lams = [self._orders[k] for k in range(m + 1 - count, m + 1)]
        try:
            return x, [lam.eval_real(x.shadow) for lam in lams]
        except MonadicaError as exc:
            raise NotDifferentiable(
                f"derivative of order {m} is not defined at {x.shadow!r}"
            ) from exc


def compose_ext(outer: NaturalExtension, inner: NaturalExtension) -> NaturalExtension:
    """Extension of the composite, on the inner domain."""
    return NaturalExtension.on_interval(compose(outer.expr, inner.expr), inner.lo, inner.hi)


# -- intervals and interval jets --------------------------------------------------
#
# Premise: IEEE + - * / round to nearest, within half an ulp, so their ends
# move one ulp outward; the math functions (exp, log, sin, cos, sqrt, **) err
# by at most 1 ulp, as glibc's tables list them on x86-64, so theirs move 2.

_nextafter = math.nextafter
_TRIG_REACH = 1e8  # beyond it, sin and cos are taken as [-1, 1]
_HALF_PI = math.pi / 2.0


def _down2(v: float) -> float:
    return _nextafter(_nextafter(v, -_INF), -_INF)


def _up2(v: float) -> float:
    return _nextafter(_nextafter(v, _INF), _INF)


def _power(a: float, alpha: float) -> float:
    try:
        return a**alpha
    except OverflowError:
        return _INF


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


class _Interval:
    """The reals from lo to hi, enclosed outward: each operation rounds its
    ends away from the exact result (see the premise above); - * / also take
    a float on the right.  An end that overflows is infinite.  A product that
    meets 0 * inf is NaN at both ends, and a NaN end stays NaN through every
    operation, so neither is ever proven."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    def __add__(self, o):
        return _Interval(_nextafter(self.lo + o.lo, -_INF), _nextafter(self.hi + o.hi, _INF))

    def __sub__(self, o):
        if type(o) is _Interval:
            return _Interval(_nextafter(self.lo - o.hi, -_INF), _nextafter(self.hi - o.lo, _INF))
        return _Interval(_nextafter(self.lo - o, -_INF), _nextafter(self.hi - o, _INF))

    def __neg__(self):
        return _Interval(-self.hi, -self.lo)

    def __mul__(self, o):
        a, b = self.lo, self.hi
        if type(o) is not _Interval:
            lo, hi = (a * o, b * o) if o >= 0.0 else (b * o, a * o)
            return _Interval(_nextafter(lo, -_INF), _nextafter(hi, _INF))
        c, d = o.lo, o.hi
        if a >= 0.0:
            lo, hi = (a * c, b * d) if c >= 0.0 else (b * c, a * d) if d <= 0.0 else (b * c, b * d)
        elif b <= 0.0:
            lo, hi = (a * d, b * c) if c >= 0.0 else (b * d, a * c) if d <= 0.0 else (a * d, a * c)
        elif c >= 0.0:
            lo, hi = a * d, b * d
        elif d <= 0.0:
            lo, hi = b * c, a * c
        else:
            lo, hi = min(a * d, b * c), max(a * c, b * d)
        if not lo <= hi:  # a NaN end, which min and max may drop: keep it at both
            return _Interval(math.nan, math.nan)
        return _Interval(_nextafter(lo, -_INF), _nextafter(hi, _INF))

    def __truediv__(self, o):
        a, b = self.lo, self.hi
        if type(o) is not _Interval:
            o = _Interval(o, o)
        c, d = o.lo, o.hi
        if c > 0.0:
            lo, hi = (a / d, b / c) if a >= 0.0 else (a / c, b / d) if b <= 0.0 else (a / c, b / c)
        elif d < 0.0:
            lo, hi = (b / d, a / c) if a >= 0.0 else (b / c, a / d) if b <= 0.0 else (b / d, a / d)
        else:  # 0 in the divisor, or a NaN end
            return _Interval(-_INF, _INF)
        return _Interval(_nextafter(lo, -_INF), _nextafter(hi, _INF))

    def __pow__(self, alpha: float):
        """x**alpha for a real alpha, on a positive interval: monotone."""
        lo, hi = _power(self.lo, alpha), _power(self.hi, alpha)
        if alpha < 0.0:
            lo, hi = hi, lo
        return _Interval(max(_down2(lo), 0.0), _up2(hi))

    def root(self, m: int):
        """The positive m-th root, on a positive interval.  1/m is rounded,
        so each end is taken at both floats next to it: x**t is monotone in t."""
        if m == 2:
            return _Interval(max(_down2(math.sqrt(self.lo)), 0.0), _up2(math.sqrt(self.hi)))
        t = 1.0 / m
        tlo, thi = _nextafter(t, -_INF), _nextafter(t, _INF)
        lo = min(self.lo**tlo, self.lo**thi)
        hi = max(self.hi**tlo, self.hi**thi)
        return _Interval(max(_down2(lo), 0.0), _up2(hi))

    def exp(self):
        lo, hi = _exp_or_inf(self.lo), _exp_or_inf(self.hi)
        return _Interval(max(_down2(lo), 0.0), _up2(hi))

    def log(self):
        """On a positive interval."""
        return _Interval(_down2(math.log(self.lo)), _up2(math.log(self.hi)))

    def sin(self):
        return self._trig(math.sin, 1)

    def cos(self):
        return self._trig(math.cos, 0)

    def _trig(self, fn, shift: int):
        """fn (sin with shift 1, cos with 0) over the interval.  In quarter
        turns t = x / (pi/2), cos peaks at t = 0 mod 4 and bottoms at 2 mod 4,
        and sin a quarter turn later; elsewhere fn is monotone, so its ends
        bound it.  t is computed rounded, so each integer within 1e-15 |t|
        of [t(lo), t(hi)] counts as inside."""
        a, b = self.lo, self.hi
        if not (-_TRIG_REACH < a and b < _TRIG_REACH):
            return _Interval(-1.0, 1.0) if a <= b else self  # self if an end is NaN
        fa, fb = fn(a), fn(b)
        lo, hi = _down2(min(fa, fb)), _up2(max(fa, fb))
        ta, tb = a / _HALF_PI, b / _HALF_PI
        first = math.ceil(ta - 1e-15 * max(1.0, abs(ta)))
        last = math.floor(tb + 1e-15 * max(1.0, abs(tb)))
        for q in range(first, min(last, first + 3) + 1):
            turn = (q - shift) % 4
            if turn == 0:
                hi = 1.0
            elif turn == 2:
                lo = -1.0
        return _Interval(max(lo, -1.0), min(hi, 1.0))


_ONE = _Interval(1.0, 1.0)


class _Jet(Arithmetic):
    """Truncated Taylor series over intervals.  Walked with the variable
    bound to ``[box, 1]``, a node's value is the list of enclosures of
    g^(k)(xi) / k! for k < n, g the node's function, one enclosure for every
    xi in the box at once (Moore 1966); coefficients past the last nonzero one
    are exact zeros and left out, so a polynomial's high coefficients are
    exactly 0 and an empty list is the zero.  Products are Cauchy
    convolutions, and quotients, exp, log, sin and cos and powers follow
    the recurrences of the ODEs that ``expr._Pair``'s rules state: v = exp(u)
    gives v' = v u', so k v_k = sum_j j u_j v_(k-j).  A check fails, raising
    OutOfDomain, wherever coefficient 0 may leave the node's domain, and a
    lifted node has no enclosure."""

    def __init__(self, n: int) -> None:
        self.n = n

    def const(self, c):
        return [_Interval(c, c)] if c else []

    def add(self, p, q):
        if len(p) < len(q):
            p, q = q, p
        return [a + b for a, b in zip(p, q)] + p[len(q):]

    def sub(self, p, q):
        out = [a - b for a, b in zip(p, q)]
        return out + (p[len(q):] if len(p) >= len(q) else [-b for b in q[len(p):]])

    def neg(self, p):
        return [-a for a in p]

    def mul(self, p, q):
        if len(p) < len(q):
            p, q = q, p
        if len(q) <= 1:
            return [a * q[0] for a in p] if q else []
        out = []
        for k in range(min(self.n, len(p) + len(q) - 1)):
            j0, j1 = max(0, k - len(q) + 1), min(k, len(p) - 1)
            s = p[j0] * q[k - j0]
            for j in range(j0 + 1, j1 + 1):
                s = s + p[j] * q[k - j]
            out.append(s)
        return out

    def div(self, p, q):
        b0 = q[0]
        if len(q) == 1 or not p:
            return [a / b0 for a in p]
        out = []
        for k in range(self.n):  # q_k = (p_k - sum_(j<k) out_j q_(k-j)) / q_0
            s = p[k] if k < len(p) else None
            for j in range(max(0, k - len(q) + 1), k):
                t = out[j] * q[k - j]
                s = -t if s is None else s - t
            out.append(s / b0)
        return out

    def pow_int(self, p, m):
        r, e = None, abs(m)  # by squaring
        while e:
            if e & 1:
                r = p if r is None else self.mul(r, p)
            e >>= 1
            if e:
                p = self.mul(p, p)
        r = [_ONE] if r is None else r
        return self.div([_ONE], r) if m < 0 else r

    def _series(self, p, v0, alpha):
        """u**alpha from u = p and its coefficient 0, v0: v' u = alpha v u',
        so k u_0 v_k = sum_(j<k) (alpha (k - j) - j) u_(k-j) v_j."""
        v = [v0]
        if len(p) > 1:
            for k in range(1, self.n):
                s = None
                for j in range(max(0, k - len(p) + 1), k):
                    t = (alpha * (k - j) - j) * p[k - j] * v[j]
                    s = t if s is None else s + t
                v.append(s / (p[0] * k))
        return v

    def pow_real(self, p, alpha):
        return self._series(p, p[0] ** alpha, _Interval(alpha, alpha))

    def root(self, p, m):
        return self._series(p, p[0].root(m), _ONE / m)

    def exp(self, p):
        if not p:
            return [_ONE]
        v = [p[0].exp()]
        if len(p) > 1:
            ju = [p[j] * j for j in range(1, len(p))]
            for k in range(1, self.n):
                s = None
                for j in range(1, min(k, len(p) - 1) + 1):
                    t = ju[j - 1] * v[k - j]
                    s = t if s is None else s + t
                v.append(s / k)
        return v

    def log(self, p):
        v = [p[0].log()]
        if len(p) > 1:  # k u_0 v_k = k u_k - sum_(0<j<k) j v_j u_(k-j)
            for k in range(1, self.n):
                s = p[k] * k if k < len(p) else None
                for j in range(max(1, k - len(p) + 1), k):
                    t = v[j] * j * p[k - j]
                    s = -t if s is None else s - t
                v.append(s / (p[0] * k))
        return v

    def _sin_cos(self, p):
        """The jets of sin(u) and cos(u): k s_k = sum_j j u_j c_(k-j), and
        k c_k = -sum_j j u_j s_(k-j)."""
        if not p:
            return [], [_ONE]
        s, c = [p[0].sin()], [p[0].cos()]
        if len(p) > 1:
            ju = [p[j] * j for j in range(1, len(p))]
            for k in range(1, self.n):
                ds = dc = None
                for j in range(1, min(k, len(p) - 1) + 1):
                    ts, tc = ju[j - 1] * c[k - j], ju[j - 1] * s[k - j]
                    ds, dc = (ts, tc) if ds is None else (ds + ts, dc + tc)
                s.append(ds / k)
                c.append(-(dc / k))
        return s, c

    def sin(self, p):
        return self._sin_cos(p)[0]

    def cos(self, p):
        return self._sin_cos(p)[1]

    def nonzero(self, p, message, shown):
        if not p or not (p[0].lo > 0.0 or p[0].hi < 0.0):
            raise OutOfDomain(message.format(shown[0]))

    def positive(self, p, message):
        if not p or not p[0].lo > 0.0:
            raise OutOfDomain(message.format(p[0] if p else 0.0))

    def lift(self, fn, p, slope):
        raise OutOfDomain(f"{fn.__self__} has no interval enclosure")


# -- Taylor expansion --------------------------------------------------------------


class TaylorExpansion(core.Record):
    """Partial sum, remainder bound, and a remainder witness theta.

    The bound is certified: |f(x) - T_n(x)| <= remainder_bound for T_n the
    exact Taylor polynomial, from interval jets over the segment from the
    center to x (``_remainder_bound``).  It does not cover the float rounding
    of ``partial_sum`` itself, about 1e-16 for sin from 0.3 to 0.8.  theta in
    ]0, 1[ is sampled: ``_first_root``'s point on samples of f^(n+1), or None."""

    __slots__ = ("partial_sum", "remainder_bound", "theta")

    def to_dict(self) -> dict:
        return {
            "partial_sum": self.partial_sum,
            "remainder_bound": self.remainder_bound,
            "theta": self.theta,
        }


_BOX_BUDGET = 64  # boxes the remainder bound may cut the segment into
_BOX_SLACK = 2.0  # it stops within this factor of a proven value of the maximum


def _box(e: Expr, k: int, a: float, b: float) -> tuple:
    """(upper, lower, a, b, unproven) for the box [a, b]: upper >= |c_k| on
    it, c_k = f^(k) / k!, and lower <= |c_k| at its midpoint m; or infinity,
    0 and the reason it is not proven.  c_k is enclosed naturally, by the
    jet over the box, and in centred form, c_k(m) + (k + 1) c_(k+1)(B) (B - m)
    by the mean value theorem, and the two enclosures intersect."""
    m = a + (b - a) / 2.0
    box = _Interval(a, b)
    try:
        over, at = _Jet(k + 2).walk(e, [box, _ONE]), _Jet(k + 1).walk(e, [_Interval(m, m), _ONE])
    except OutOfDomain as exc:
        return _INF, 0.0, a, b, str(exc)
    if len(over) <= k:  # an exact zero
        return 0.0, 0.0, a, b, None
    centred = at[k] if len(over) == k + 1 else at[k] + over[k + 1] * (k + 1) * (box - m)
    # max and min keep their first argument against a NaN: a NaN end of the
    # centred form is never taken
    lo, hi = max(over[k].lo, centred.lo), min(over[k].hi, centred.hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return _INF, 0.0, a, b, f"f^({k})/{k}! encloses to [{lo!r}, {hi!r}] on [{a!r}, {b!r}]"
    mid = at[k]
    lower = mid.lo if mid.lo > 0.0 else -mid.hi if mid.hi < 0.0 else 0.0
    return max(-lo, hi), lower, a, b, None


def _remainder_bound(e: Expr, center: float, x: float, k: int) -> float:
    """An upper bound of |f^(k)(xi) / k!| |x - center|^k for every xi between
    center and x, the exact difference, rounded up; a box that is not proven
    raises OutOfDomain.  The box of the largest upper end is bisected until
    that end is within ``_BOX_SLACK`` of the largest lower value proven at a
    midpoint, or ``_BOX_BUDGET`` boxes are used."""
    boxes = [_box(e, k, min(center, x), max(center, x))]
    proven = boxes[0][1]
    while True:
        worst = max(boxes, key=itemgetter(0))
        upper, _, a, b, unproven = worst
        m = a + (b - a) / 2.0
        if upper <= _BOX_SLACK * proven or len(boxes) >= _BOX_BUDGET or not a < m < b:
            break
        boxes.remove(worst)
        for half in (_box(e, k, a, m), _box(e, k, m, b)):
            boxes.append(half)
            proven = max(proven, half[1])
    if unproven is not None:
        raise OutOfDomain(
            f"the remainder of the expansion about {center!r} at {x!r} is not proven: {unproven}"
        )
    if upper == 0.0:
        return 0.0
    step = _Interval(x, x) - center
    size = max(-step.lo, step.hi)
    return (_Interval(size, size) ** float(k) * upper).hi


def taylor_expand(f: NaturalExtension, center: float, order: int, x) -> TaylorExpansion:
    """Expand around a real center and evaluate the remainder machinery at
    the shadow of x (which must differ from the center).  Where the
    remainder bound is not proven, across a pole or through a lifted node,
    OutOfDomain names the center, x and the reason."""
    order = core._count(order, "expansion order", 0, 169)  # 170! is the last float factorial
    center = core._real(center, "center")
    x = as_generalized(x)
    f._require(center, "center")
    f._require(x.shadow)
    if x.shadow == center:
        raise OutOfDomain("evaluation shadow must differ from the center")
    lams = f.deriv_exprs(order + 1)
    h = x.shadow - center
    if math.isinf(h):
        raise OutOfDomain(f"step {x.shadow!r} - {center!r} from the center overflows")
    partial = 0.0
    try:  # evaluations map their own overflows, so this catches h**k's
        for k in range(order + 1):
            partial += lams[k].eval_real(center) * h**k / math.factorial(k)
        target = f.real_fn(0)(x.shadow)
        scale = h ** (order + 1) / math.factorial(order + 1)
    except OverflowError:
        raise OutOfDomain(f"a power of the step {h!r} from the center overflows") from None
    top = f.real_fn(order + 1)
    rest = target - partial

    def gap(theta: float) -> float:
        return rest - scale * top(center + theta * h)

    def gaps(thetas: _Nodes) -> list[float]:
        return [rest - scale * v for v in f._sample(order + 1, _Nodes(center, h, thetas.units))]

    theta = _first_root(gap, gaps, 0.0, 1.0, 1e-13 * max(1.0, abs(target)))
    if not math.isfinite(partial):
        raise OutOfDomain(f"partial sum {partial!r} of the expansion about {center!r} is not finite")
    bound = _remainder_bound(f.expr, center, x.shadow, order + 1)
    if not math.isfinite(bound):
        raise OutOfDomain(f"remainder bound {bound!r} of the expansion about {center!r} is not finite")
    return TaylorExpansion(partial, bound, theta)


# -- mean value point --------------------------------------------------------------


def mean_value_point(f: NaturalExtension, a, b) -> float:
    """A real point strictly between the shadows where the derivative equals
    the shadow-level mean slope, as ``_first_root`` finds it within
    1e-13 * max(1, |slope|); when it finds none, ``DomainError``."""
    a, b = as_generalized(a), as_generalized(b)
    if not core.lt(a, b):
        raise DomainError("endpoints must satisfy a < b (indiscernible rejected)")
    sa, sb = a.shadow, b.shadow
    f._require(sa)
    f._require(sb)
    phi, lam = f.real_fn(0), f.real_fn(1)
    width = sb - sa
    slope = (phi(sb) - phi(sa)) / width
    if math.isinf(width) or not math.isfinite(slope):
        raise OutOfDomain(f"the mean slope over [{sa!r}, {sb!r}] overflows")
    tol = 1e-13 * max(1.0, abs(slope))

    def gap(t: float) -> float:
        return lam(t) - slope

    def gaps(ts: _Nodes) -> list[float]:
        return [v - slope for v in f._sample(1, ts)]

    root = _first_root(gap, gaps, sa, width, tol)
    if root is not None:
        return root
    ts = _Nodes(sa, width, _INNER)
    vals = gaps(ts)
    missed = f"no mean-value point found on [{sa!r}, {sb!r}]: the derivative "
    cell = next(_sign_changes(vals, tol), None)
    if cell is not None:
        raise DomainError(
            f"{missed}crosses the mean slope {slope!r} between {ts[cell]!r} and "
            f"{ts[cell + 1]!r}, but the crossing is not a root: |f' - slope| "
            f"grows toward it, as at a pole"
        )
    raise DomainError(f"{missed}neither meets nor crosses the mean slope {slope!r} on the grid")


# -- inversion ----------------------------------------------------------------------


class InverseExpr(Expr):
    """Inverse of a strictly monotone extension fn at its operand arg,
    evaluated by bisection.  Interned like every node: equal extensions have
    one inverse node per operand."""

    __slots__ = ("fn", "arg", "_last")

    def _window(self) -> tuple[float, float]:
        wlo, whi = _finite_window(self.fn.lo, self.fn.hi, _PROBE_WINDOW)
        inset = (whi - wlo) * 1e-12
        return wlo + inset, whi - inset

    def rule(self, arith, x, a):
        return arith.lift(self.invert, a, self.slope)

    def invert(self, y: float) -> float:
        """The point where the function takes the value y.  eval_at passes
        one point to the value and the slope, so the last root is kept and
        each point inverts once; the memo compares value and sign, so 0.0
        and -0.0 stay apart and NaN never matches."""
        key, root = getattr(self, "_last", (None, 0.0))
        if key == y and math.copysign(1.0, key) == math.copysign(1.0, y):
            return root
        phi = self.fn.real_fn(0)
        lo, hi = self._window()
        va, vb = phi(lo), phi(hi)
        if not (min(va, vb) <= y <= max(va, vb)):
            raise OutOfDomain(f"{y!r} is outside the inverted range")
        root = lo if va == y else _bisect(lambda t: phi(t) - y, lo, hi, va - y)[0]
        dphi = self.fn.real_fn(1)
        for _ in range(3):  # Newton polish
            d = dphi(root)
            if d == 0.0:
                break
            step = (phi(root) - y) / d
            root -= step
        object.__setattr__(self, "_last", (y, root))
        return root

    def slope(self, y: float, v: float) -> float:
        """The inverse's derivative at y, given its value v there: 1 / f'(v)."""
        d = self.fn.real_fn(1)(v)
        if d == 0.0:
            raise OutOfDomain(f"division by zero at {y!r}")
        return 1.0 / d

    def tangent(self, arg: Expr) -> tuple[Expr, Expr]:
        """The inverse at the tree arg, and its slope there, 1 / f'(inverse),
        as trees: what differentiation lifts this node to."""
        node = InverseExpr(self.fn, arg)
        return node, Div(Const(1.0), compose(self.fn.deriv, node))

    def __str__(self):
        inverse = f"inverse({self.fn.expr})"
        return inverse if self.arg is Var() else f"{inverse}({self.arg})"


def _require_finite(what: str, xs, vals: list[float]) -> None:
    """Raise DomainError at the first sample whose value is not finite."""
    if not all(map(math.isfinite, vals)):
        i = [*map(math.isfinite, vals)].index(False)
        raise DomainError(f"function has {what} {vals[i]!r} at {xs[i]!r}, which is not finite")


def inverse_extension(f: NaturalExtension) -> NaturalExtension:
    """Invert a continuous injective extension with nonvanishing derivative.

    The derivative of the result is the reciprocal of the original
    derivative taken at the inverse image.  Validity is checked by dense
    sampling: finite values and monotonicity (injectivity), then finite
    derivatives, their sign and their zeros without a sign change (see
    ``_touch_zeros``).  The range it proves is kept on f, so a second call
    samples nothing; a failure is not kept.
    """
    if f._range is None:
        object.__setattr__(f, "_range", _inverted_range(f))
    ylo, yhi = f._range
    inv_expr = InverseExpr(f, Var())
    g = NaturalExtension(inv_expr, ylo, yhi)
    # What compiling the two trees would give, without compiling them; a
    # copy compiles them, and either way eval_at inverts once per point
    g._compiled[0] = _as_compiled(inv_expr.eval_real)
    g._compiled[1] = _as_compiled(lambda y: inv_expr.slope(y, inv_expr.eval_real(y)))
    return g


def _inverted_range(f: NaturalExtension) -> tuple[float, float]:
    """The range (ylo, yhi) of f over its sampled window, once the samples
    show f strictly monotone with a derivative that has no zero."""
    lo, hi = _finite_window(f.lo, f.hi, _PROBE_WINDOW)
    xs = _Nodes(lo, hi - lo, _unit(_INVERSE_SAMPLES, cells=True))
    values = f._sample(0, xs)
    _require_finite("value", xs, values)
    diffs = list(map(sub, values[1:], values))
    if 0.0 in diffs or (min(diffs) < 0.0 < max(diffs)):
        raise NotInjective("function is not strictly monotone on its domain")
    derivs = f._sample(1, xs)
    _require_finite("derivative", xs, derivs)
    zero_tol = 1e-12 * max(1.0, max(map(abs, derivs)))
    if (
        0.0 in derivs
        or min(derivs) < 0.0 < max(derivs)
        or next(_touch_zeros(f, xs, derivs, zero_tol), None) is not None
    ):
        raise VanishingDerivative("derivative has a zero on the domain")
    ylo, yhi = sorted((values[0] + 0.0, values[-1] + 0.0))  # no signed zero
    return ylo, yhi


def _as_compiled(fn: Callable[[float], float]) -> functools.partial:
    return functools.partial(_value_at, lambda lo, w, u, out: out.extend(map(fn, _Nodes(lo, w, u))))


# -- images of sets -----------------------------------------------------------------


def _deriv_zeros(f: NaturalExtension, a: float, b: float):
    """Zeros of the derivative on [a, b], with or without a sign change;
    returns (zeros, is_constant)."""
    xs = _Nodes(a, b - a, _unit(_ZERO_CELLS))
    vals = f._sample(1, xs)
    mags = list(map(abs, vals))
    tol = 1e-12 * max(1.0, max(mags))
    flat = [m <= tol for m in mags]
    if all(flat):
        return [], True
    zeros = [xs[i] for i in compress(range(len(flat)), flat)]
    zeros += _crossings(f.real_fn(1), xs, vals, tol)
    zeros += _touch_zeros(f, xs, vals, tol)
    zeros.sort()
    deduped: list[float] = []
    gap = (b - a) * 1e-9
    for z in zeros:
        if not deduped or z - deduped[-1] > gap:
            deduped.append(z)
    return deduped, False


def image_set(f: NaturalExtension, g: GeneralizedSet) -> GeneralizedSet:
    """Image of a set under the extension.

    Monads of points where the derivative vanishes collapse to bare reals;
    everywhere else full monads map onto full monads, so interval bases map
    to interval bases split at the derivative's zeros.  Bases must be
    bounded and lie (with endpoints) inside the function's domain.
    """
    from .sets import GeneralizedSet, RealSet

    ints: list[tuple] = []  # raw (lo, hi, lo_closed, hi_closed), as RealSet takes them
    pts: list[float] = []
    extras: list[float] = []
    phi, lam = f.real_fn(0), f.real_fn(1)

    def is_flat(t: float) -> bool:
        return abs(lam(t)) <= 1e-12

    for iv in g.base.intervals:
        if not iv.bounded:
            raise DomainError("image requires bounded interval bases")
        a, b = iv.lo, iv.hi
        f._require_closure(a, b)
        zeros, constant = _deriv_zeros(f, a, b)
        if constant:
            extras.append(phi((a + b) / 2.0))
            continue
        margin = (b - a) * 1e-9
        knots = [a] + [z for z in zeros if a + margin < z < b - margin] + [b]
        ys = list(map(phi, knots))
        _require_finite("value", knots, ys)
        for s, t, ya, yb in zip(knots, knots[1:], ys, ys[1:]):
            side_a_closed = s == a and iv.lo_closed and not is_flat(a)
            side_b_closed = t == b and iv.hi_closed and not is_flat(b)
            if ya <= yb:
                ints.append((ya, yb, side_a_closed, side_b_closed))
            else:
                ints.append((yb, ya, side_b_closed, side_a_closed))
        for z in zeros:
            if iv.contains(z):
                extras.append(phi(z))
    for p in g.base.points:
        f._require(p)
        if is_flat(p):
            extras.append(phi(p))
        else:
            pts.append(phi(p))
    for p in g.extras:
        f._require(p)
        extras.append(phi(p))
    return GeneralizedSet(RealSet(ints, pts), tuple(extras))


# -- piecewise functions with explicit monad rules -----------------------------------


class MonadRule(core.Record):
    """Affine value on a breakpoint monad: value + slope * dt."""

    __slots__ = ("value", "slope")

    def __init__(self, value, slope) -> None:
        object.__setattr__(self, "value", core._clean(value, "monad rule value"))
        object.__setattr__(self, "slope", core._clean(slope, "monad rule slope"))


class LimitProbe(core.Record):
    """Numerically probed one-sided difference quotients at a point."""

    __slots__ = ("exists", "value", "left", "right", "detail")


class RegionReport(core.Record):
    __slots__ = ("region", "status", "detail")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {"region": self.region, "status": self.status, "detail": self.detail}


class PiecewiseExtension(core.Record):
    """Expressions on the open gaps between breakpoints, affine rules on the
    breakpoint monads; regions cover the whole continuum.  Each gap is the
    natural extension of its expression on its gap, which
    ``NaturalExtension.on_interval`` checks is valid there (by sampling)."""

    __slots__ = ("breakpoints", "gap_exprs", "monad_rules", "_gaps")

    def __init__(self, breakpoints, gap_exprs, monad_rules) -> None:
        bps = tuple(core._real(b, "breakpoint") for b in breakpoints)
        for b in bps:
            if not math.isfinite(b):
                raise DomainError("breakpoints must be finite reals")
        if any(x >= y for x, y in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if len(gap_exprs) != len(bps) + 1:
            raise DomainError("need one gap expression more than breakpoints")
        if len(monad_rules) != len(bps):
            raise DomainError("need one monad rule per breakpoint")
        for rule in monad_rules:
            if not isinstance(rule, MonadRule):
                raise DomainError(f"a monad rule must be a MonadRule, not {rule!r}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "gap_exprs", tuple(gap_exprs))
        object.__setattr__(self, "monad_rules", tuple(monad_rules))
        ends = (-_INF, *bps, _INF)
        gaps = map(NaturalExtension.on_interval, self.gap_exprs, ends, ends[1:])
        object.__setattr__(self, "_gaps", tuple(gaps))

    def _region(self, s: float) -> tuple[int, bool]:
        """(i, True) when s is breakpoint i, else (i, False) for gap i."""
        i = bisect_right(self.breakpoints, s)
        if i and self.breakpoints[i - 1] == s:
            return i - 1, True
        return i, False

    def _value(self, s: float) -> float:
        """The underlying real function at s."""
        i, on_breakpoint = self._region(s)
        if on_breakpoint:
            return self.monad_rules[i].value
        return self._gaps[i].real_fn(0)(s)

    def eval_at(self, t) -> GeneralizedReal:
        t = as_generalized(t)
        i, on_breakpoint = self._region(t.shadow)
        if on_breakpoint:
            rule = self.monad_rules[i]
            return core._tangent(t, rule.value, rule.slope)
        return self._gaps[i].eval_at(t)

    def limit_probe(self, xi0: float) -> LimitProbe:
        """Difference quotients at steps 2**-k, k = 4..20, per side; a side
        converges when its last three estimates are Cauchy within 1e-5 and
        the limit exists when both sides agree within 1e-4.  Heuristic."""
        xi0 = core._clean(xi0, "point")
        c = self._value(xi0)
        nearest = min(
            (abs(b - xi0) for b in self.breakpoints if b != xi0), default=_INF
        )

        def side(sign: float) -> tuple[float | None, bool]:
            qs = []
            for k in range(4, 21):
                h = sign * 2.0**-k
                if abs(h) >= nearest:
                    continue
                # a step lost in rounding lands on xi0, which maps to c
                t = xi0 + h
                try:
                    qs.append(((c if t == xi0 else self._value(t)) - c) / h)
                except MonadicaError:
                    return None, False
            if len(qs) < 3:
                return None, False
            cauchy = (
                abs(qs[-1] - qs[-2]) <= 1e-5 and abs(qs[-2] - qs[-3]) <= 1e-5
            )
            return qs[-1], cauchy

        left, left_ok = side(-1.0)
        right, right_ok = side(+1.0)
        if left_ok and right_ok and abs(left - right) <= 1e-4:
            value = (left + right) / 2.0
            return LimitProbe(True, value, left, right, f"classical limit ~ {value!r}")
        return LimitProbe(False, None, left, right, "classical limit absent")

    def deriv_at(self, xi0: float) -> float | None:
        """Derivative at a real point.

        On a breakpoint monad this is the declared slope, subject to the
        proviso: when the probed classical limit exists it must agree with
        the declaration.  Off the breakpoints it is the symbolic derivative
        of the gap expression; None when that is not evaluable.
        """
        xi0 = core._clean(xi0, "point")
        i, on_breakpoint = self._region(xi0)
        if not on_breakpoint:
            try:
                return self._gaps[i].real_fn(1)(xi0)
            except MonadicaError:
                return None
        declared = self.monad_rules[i].slope
        probe = self.limit_probe(xi0)
        if probe.exists and abs(declared - probe.value) > 1e-3 * max(
            1.0, abs(probe.value)
        ):
            raise ProvisoViolated(
                f"declared derivative {declared!r} at {xi0!r} but the "
                f"classical limit is {probe.value!r}"
            )
        return declared


def ode_verify(solution: PiecewiseExtension, rhs: PiecewiseExtension) -> list[RegionReport]:
    """Check a piecewise solution against a piecewise right-hand side,
    region by region: symbolic gap derivatives on sampled real points,
    declared monad slopes (with the proviso probe) on breakpoint monads."""
    if solution.breakpoints != rhs.breakpoints:
        raise RegionMismatch(
            f"breakpoints differ: {solution.breakpoints} vs {rhs.breakpoints}"
        )
    bps = solution.breakpoints
    reports: list[RegionReport] = []
    for i, (gap, rhs_gap) in enumerate(zip(solution._gaps, rhs._gaps)):
        if not bps:
            region = "all t"
        elif i == 0:
            region = f"t < {bps[0]!r}"
        elif i == len(bps):
            region = f"t > {bps[-1]!r}"
        else:
            region = f"{bps[i - 1]!r} < t < {bps[i]!r}"
        slope, value = gap.real_fn(1), rhs_gap.real_fn(0)
        worst = 0.0
        status = "pass"
        detail = ""
        lo, hi = _finite_window(gap.lo, gap.hi, 2.0)
        for t in _Nodes(lo, hi - lo, _unit(_ODE_SAMPLES, cells=True)):
            try:
                got, want = slope(t), value(t)
            except MonadicaError as exc:
                status, detail = "fail", f"evaluation failed at t={t!r}: {exc}"
                break
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
            if err > 1e-9:
                status = "fail"
                detail = f"derivative {got!r} != rhs {want!r} at t={t!r}"
                break
        if status == "pass":
            detail = f"max relative deviation {worst:.3e} on {_ODE_SAMPLES} samples"
        reports.append(RegionReport(region, status, detail))
    for i, b in enumerate(bps):
        region = f"monad({b!r})"
        rhs_rule = rhs.monad_rules[i]
        if rhs_rule.slope != 0.0:
            reports.append(
                RegionReport(
                    region, "fail", "right-hand side is not a real constant here"
                )
            )
            continue
        probe = solution.limit_probe(b)
        try:
            alpha = solution.deriv_at(b)
        except ProvisoViolated as exc:
            reports.append(RegionReport(region, "fail", str(exc)))
            continue
        ok = abs(alpha - rhs_rule.value) <= 1e-12 * max(1.0, abs(rhs_rule.value))
        reports.append(
            RegionReport(
                region,
                "pass" if ok else "fail",
                f"derivative {alpha!r} vs rhs {rhs_rule.value!r}; {probe.detail}",
            )
        )
    return reports
