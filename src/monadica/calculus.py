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
from operator import sub
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
from .expr import Compose, Const, Div, Expr, _value_at, compile_real, differentiate
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
_BOUND_CELLS = 2048  # grid cells sampled for the Taylor remainder bound


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

    __slots__ = ("expr", "lo", "hi", "_trees", "_compiled")

    def __init__(self, expr: Expr, lo: float, hi: float) -> None:
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_trees", (expr,))
        object.__setattr__(self, "_compiled", {})

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
        ext.real_fn(0), ext.real_fn(1)  # a tree too deep raises TOO_DEEP as it is
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
        return self.deriv_exprs(1)[1]

    def real_fn(self, k: int) -> functools.partial:
        """The k-th derivative (k = 0 is the function) as a compiled function
        of one float, built on first use: the partial's one argument is its kernel."""
        fn = self._compiled.get(k)
        if fn is None:
            fn = self._compiled[k] = compile_real(self.deriv_exprs(k)[k])
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

        Each tree is differentiated once and kept: repeated calls return
        the same objects."""
        trees = self._trees
        if len(trees) <= upto:
            # grown apart and stored whole, so concurrent callers never see
            # a tree at the wrong order
            grown = list(trees)
            while len(grown) <= upto:
                grown.append(differentiate(grown[-1]))
            trees = tuple(grown)
            object.__setattr__(self, "_trees", trees)
        return list(trees[: max(upto, 0) + 1])

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
        lams = self.deriv_exprs(m)[m + 1 - count :]
        try:
            return x, [lam.eval_real(x.shadow) for lam in lams]
        except MonadicaError as exc:
            raise NotDifferentiable(
                f"derivative of order {m} is not defined at {x.shadow!r}"
            ) from exc


def compose_ext(outer: NaturalExtension, inner: NaturalExtension) -> NaturalExtension:
    """Extension of the composite, on the inner domain."""
    return NaturalExtension.on_interval(Compose(outer.expr, inner.expr), inner.lo, inner.hi)


# -- Taylor expansion --------------------------------------------------------------


class TaylorExpansion(core.Record):
    """Partial sum, a sampled remainder bound (the largest |f^(n+1)| over
    2049 points from the center to x, refined by a ternary search, so not
    an enclosure), and a remainder witness theta in ]0,1[ that ``_first_root``
    finds on the same samples, or None."""

    __slots__ = ("partial_sum", "remainder_bound", "theta")

    def to_dict(self) -> dict:
        return {
            "partial_sum": self.partial_sum,
            "remainder_bound": self.remainder_bound,
            "theta": self.theta,
        }


def _max_abs_on_segment(fn: Callable[[float], float], xs, vals: list[float]) -> float:
    """The largest |fn| over the grid xs (vals = fn(xs)), refined by a
    ternary search around the sampled argmax: the first largest |fn|, or
    node 0 if NaN, as max(range(n), key=|vals|) picks it."""
    hi, lo = max(vals), min(vals)
    peak = max(abs(hi), abs(lo))
    best = min(vals.index(v) for v in (hi, lo) if not abs(v) < peak)
    a = xs[max(0, best - 1)]
    b = xs[min(len(vals) - 1, best + 1)]
    for _ in range(60):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if abs(fn(m1)) < abs(fn(m2)):
            a = m1
        else:
            b = m2
    return max(peak, abs(fn((a + b) / 2.0)))


def taylor_expand(f: NaturalExtension, center: float, order: int, x) -> TaylorExpansion:
    """Expand around a real center and evaluate the remainder machinery at
    the shadow of x (which must differ from the center)."""
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
    xs = _Nodes(center, h, _unit(_BOUND_CELLS))
    tops = f._sample(order + 1, xs)
    rest = target - partial

    def gap(theta: float) -> float:
        return rest - scale * top(center + theta * h)

    def gaps(thetas: _Nodes) -> list[float]:
        # theta node i / n is bound node i * 2048 / n, the same float for n
        # a power of two, so center + theta * h is too
        step = _BOUND_CELLS // (len(thetas.units) + 1)
        return [rest - scale * v for v in tops[step:-1:step]]

    theta = _first_root(gap, gaps, 0.0, 1.0, 1e-13 * max(1.0, abs(target)))
    bound = _max_abs_on_segment(top, xs, tops) * abs(h) ** (order + 1) / math.factorial(order + 1)
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
    """Inverse of a strictly monotone extension, evaluated by bisection."""

    __slots__ = ("fn", "_last")

    def __init__(self, fn: NaturalExtension) -> None:
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "_last", (None, 0.0))

    def _window(self) -> tuple[float, float]:
        wlo, whi = _finite_window(self.fn.lo, self.fn.hi, _PROBE_WINDOW)
        inset = (whi - wlo) * 1e-12
        return wlo + inset, whi - inset

    def rule(self, arith, y):
        return arith.lift(self.invert, y, self.slope)

    def invert(self, y: float) -> float:
        """The point where the function takes the value y.  eval_at passes
        one point to the value and the slope, so the last root is kept and
        each point inverts once; the memo compares value and sign, so 0.0
        and -0.0 stay apart and NaN never matches."""
        key, root = self._last
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

    def deriv(self) -> Expr:
        return Div(Const(1.0), Compose(self.fn.deriv, self))

    def __str__(self):
        return f"inverse({self.fn.expr})"


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
    ``_touch_zeros``).
    """
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
    inv_expr = InverseExpr(f)
    g = NaturalExtension(inv_expr, ylo, yhi)
    # What compiling the two trees would give, without compiling them; a
    # copy compiles them, and either way eval_at inverts once per point
    g._compiled[0] = _as_compiled(inv_expr.eval_real)
    g._compiled[1] = _as_compiled(lambda y: inv_expr.slope(y, inv_expr.eval_real(y)))
    return g


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
        for s, t in zip(knots, knots[1:]):
            ya, yb = phi(s), phi(t)
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
