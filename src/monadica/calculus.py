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

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Iterator

from . import core
from .core import GeneralizedReal, as_generalized
from .errors import (
    DomainError,
    MonadicaError,
    NonFiniteInput,
    NotDifferentiable,
    NotInjective,
    OutOfDomain,
    ProvisoViolated,
    RegionMismatch,
    VanishingDerivative,
)
from .expr import Compose, Const, Div, Expr, compile_real, differentiate, gen_eval

if TYPE_CHECKING:
    from .sets import GeneralizedSet

_INF = math.inf
_PROBE_WINDOW = 32.0
_PROBES = 129  # cells probed for validity by NaturalExtension.on_interval
_INVERSE_SAMPLES = 1024  # cells sampled for monotonicity by inverse_extension
_ODE_SAMPLES = 25  # points checked per gap by ode_verify
_ROOT_CELLS = 1024  # grid cells scanned for a sign change before bisecting
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


def _grid(lo: float, hi: float, n: int, cells: bool = False) -> list[float]:
    """The n + 1 nodes of n equal cells on [lo, hi]; with cells, the n cell
    midpoints instead."""
    if cells:
        return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


def _bisect(g, a: float, b: float, ga: float, tol: float = 0.0) -> float:
    """A root of g in [a, b], given ga = g(a) and a sign change over [a, b].
    Stops when |g(mid)| <= tol or the bracket is narrower than
    1e-15 * max(1, |mid|), which takes about 50 halvings of a unit bracket."""
    while True:
        mid = (a + b) / 2.0
        gm = g(mid)
        if abs(gm) <= tol or b - a < 1e-15 * max(1.0, abs(mid)):
            return mid
        if (ga < 0.0) == (gm < 0.0):
            a, ga = mid, gm
        else:
            b = mid


def _crossings(g, xs: list[float], vals: list[float], tol: float) -> Iterator[float]:
    """Lazily, one bisected root of g per grid cell whose end values
    (vals = g(xs)) exceed tol in size and differ in sign."""
    for a, b, ga, gb in zip(xs, xs[1:], vals, vals[1:]):
        if ga * gb < 0.0 and abs(ga) > tol and abs(gb) > tol:
            yield _bisect(g, a, b, ga, tol)


def _touch_zeros(
    f: NaturalExtension, xs: list[float], vals: list[float], tol: float
) -> Iterator[float]:
    """Lazily, zeros of f' where f' need not change sign (vals = f'(xs)).
    At each grid minimum of |f'|, a sign change of f'' over the two
    neighbours is bisected, and the point is kept when |f'| <= tol there.
    Heuristic: only points where |f'| dips at a grid node are examined."""
    lam, curl = f.real_fn(1), f.real_fn(2)
    mags = [abs(v) for v in vals]
    last = len(xs) - 1
    for i, m in enumerate(mags):
        if (i > 0 and mags[i - 1] < m) or (i < last and mags[i + 1] <= m):
            continue
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, last)]
        ca = curl(a)
        if ca * curl(b) < 0.0:
            z = _bisect(curl, a, b, ca)
            if abs(lam(z)) <= tol:
                yield z


# -- natural extensions ----------------------------------------------------------


class NaturalExtension(core.Record):
    """A real function ``expr`` on the open interval ]lo, hi[ where it and
    its symbolic derivative are valid.

    Sampling loops evaluate the trees through ``real_fn``, which compiles
    each derivative tree once (see ``expr.compile_real``) and returns
    exactly what the tree walk ``eval_real`` would.
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
        lo, hi = core._real(lo, "interval lo"), core._real(hi, "interval hi")
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise DomainError(f"invalid open interval ({lo}, {hi})")
        ext = cls(expr, lo + 0.0, hi + 0.0)  # no signed zero
        ext.deriv_exprs(1)  # a tree with no derivative fails before compiling
        value, slope = ext.real_fn(0), ext.real_fn(1)
        invalid = f"function is not valid on ({lo}, {hi}): "
        for xi in _grid(*_finite_window(lo, hi, _PROBE_WINDOW), _PROBES, cells=True):
            try:
                v, d = value(xi), slope(xi)
            except MonadicaError as exc:
                raise DomainError(invalid + str(exc)) from exc
            if not (math.isfinite(v) and math.isfinite(d)):
                raise DomainError(
                    f"{invalid}value {v!r} and derivative {d!r} at {xi!r} are not both finite"
                )
        return ext

    @property
    def deriv(self) -> Expr:
        """The symbolic derivative."""
        return self.deriv_exprs(1)[1]

    def real_fn(self, k: int) -> Callable[[float], float]:
        """The k-th derivative (k = 0 is the function) as a compiled
        function of one float, built on first use."""
        compiled = self._compiled
        fn = compiled.get(k)
        if fn is None:
            fn = compiled[k] = compile_real(self.deriv_exprs(k)[k])
        return fn

    def _require(self, s: float) -> None:
        if not self.lo < s < self.hi:
            raise OutOfDomain(f"shadow {s!r} lies outside the domain")

    def _require_closure(self, a: float, b: float) -> None:
        if not (self.lo < a < self.hi and self.lo < b < self.hi):
            raise OutOfDomain(
                f"the closed interval [{a!r}, {b!r}] must lie inside the domain"
            )

    def eval_at(self, x) -> GeneralizedReal:
        """value(shadow) + derivative(shadow) * dx."""
        x = as_generalized(x)
        self._require(x.shadow)
        return _tangent(x, self.real_fn(0)(x.shadow), self.real_fn(1)(x.shadow))

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
        if not isinstance(m, int) or m < 1:
            raise DomainError("extension order must be a positive integer")
        x = as_generalized(x)
        self._require(x.shadow)
        lams = self.deriv_exprs(m)
        try:
            value = lams[m - 1].eval_real(x.shadow)
            slope = lams[m].eval_real(x.shadow)
        except MonadicaError as exc:
            raise NotDifferentiable(
                f"derivative of order {m} is not defined at {x.shadow!r}"
            ) from exc
        return _tangent(x, value, slope)

    def deriv_higher(self, m: int, x) -> float:
        """m-th derivative at the shadow of x (always a real)."""
        if not isinstance(m, int) or m < 1:
            raise DomainError("derivative order must be a positive integer")
        x = as_generalized(x)
        self._require(x.shadow)
        try:
            return self.deriv_exprs(m)[m].eval_real(x.shadow)
        except MonadicaError as exc:
            raise NotDifferentiable(
                f"derivative of order {m} is not defined at {x.shadow!r}"
            ) from exc


def _tangent(x: GeneralizedReal, value: float, slope: float) -> GeneralizedReal:
    """``core._tangent``, naming the shadow of x when the result is not finite."""
    try:
        return core._tangent(x, value, slope)
    except NonFiniteInput as exc:
        raise NonFiniteInput(f"the extension is not finite at shadow {x.shadow!r}") from exc


def compose_ext(outer: NaturalExtension, inner: NaturalExtension) -> NaturalExtension:
    """Extension of the composite, on the inner domain."""
    return NaturalExtension.on_interval(Compose(outer.expr, inner.expr), inner.lo, inner.hi)


# -- Taylor expansion --------------------------------------------------------------


class TaylorExpansion(core.Record):
    """Partial sum, a sampled remainder bound (the largest |f^(n+1)| over
    2049 points of the segment, refined by a ternary search, so not an
    enclosure), and (when a numeric root search succeeds) a remainder
    witness theta in ]0,1[ or None."""

    __slots__ = ("partial_sum", "remainder_bound", "theta")

    def to_dict(self) -> dict:
        return {
            "partial_sum": self.partial_sum,
            "remainder_bound": self.remainder_bound,
            "theta": self.theta,
        }


def _max_abs_on_segment(fn: Callable[[float], float], lo: float, hi: float) -> float:
    if lo > hi:
        lo, hi = hi, lo
    xs = _grid(lo, hi, _BOUND_CELLS)
    vals = [abs(fn(t)) for t in xs]
    best = max(range(len(xs)), key=lambda i: vals[i])
    # ternary refinement around the sampled argmax
    a = xs[max(0, best - 1)]
    b = xs[min(_BOUND_CELLS, best + 1)]
    for _ in range(60):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if abs(fn(m1)) < abs(fn(m2)):
            a = m1
        else:
            b = m2
    return max(vals[best], abs(fn((a + b) / 2.0)))


def taylor_expand(f: NaturalExtension, center: float, order: int, x) -> TaylorExpansion:
    """Expand around a real center and evaluate the remainder machinery at
    the shadow of x (which must differ from the center)."""
    if not isinstance(order, int) or order < 0:
        raise DomainError("expansion order must be a nonnegative integer")
    center = core._real(center, "center")
    x = as_generalized(x)
    f._require(center)
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

    def gap(theta: float) -> float:
        return target - partial - scale * top(center + theta * h)

    theta = _find_unit_root(gap, abs_tol=1e-13 * max(1.0, abs(target)))
    bound = _max_abs_on_segment(top, center, x.shadow) * abs(h) ** (order + 1)
    bound /= math.factorial(order + 1)
    return TaylorExpansion(partial, bound, theta)


# the unit grid with its ends moved inside, built once: building it per call
# costs about as much as evaluating a compiled tree at every node
_THETAS = [1e-9, *_grid(0.0, 1.0, _ROOT_CELLS)[1:-1], 1.0 - 1e-9]


def _find_unit_root(g, abs_tol: float) -> float | None:
    """A root of g in the open unit interval: grid scan plus bisection."""
    if abs(g(0.5)) <= abs_tol:
        return 0.5
    vals = [g(t) for t in _THETAS]
    for t, v in zip(_THETAS, vals):
        if abs(v) <= abs_tol:
            return t
    return next(_crossings(g, _THETAS, vals, abs_tol), None)


# -- mean value point --------------------------------------------------------------


def mean_value_point(f: NaturalExtension, a, b) -> float:
    """A real point strictly between the shadows where the derivative equals
    the shadow-level mean slope."""
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

    def h(t: float) -> float:
        return lam(t) - slope

    ts = _grid(sa, sb, _ROOT_CELLS)[1:-1]
    vals = [h(t) for t in ts]
    tol = 1e-13 * max(1.0, abs(slope))
    best = min(range(len(ts)), key=lambda i: abs(vals[i]))
    if abs(vals[best]) <= tol:
        return ts[best]
    # without a sign change, the grid minimum: the crossing was narrower
    # than the grid
    return next(_crossings(h, ts, vals, tol), ts[best])


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
        one float to the value and the slope, so the last root is kept and
        each point inverts once; the memo compares by identity, since
        0.0 == -0.0."""
        key, root = self._last
        if key is y:
            return root
        phi = self.fn.real_fn(0)
        lo, hi = self._window()
        va, vb = phi(lo), phi(hi)
        if not (min(va, vb) <= y <= max(va, vb)):
            raise OutOfDomain(f"{y!r} is outside the inverted range")
        root = lo if va == y else _bisect(lambda t: phi(t) - y, lo, hi, va - y)
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


def _require_finite(what: str, xs: list[float], vals: list[float]) -> None:
    """Raise DomainError at the first sample whose value is not finite."""
    for t, v in zip(xs, vals):
        if not math.isfinite(v):
            raise DomainError(f"function has {what} {v!r} at {t!r}, which is not finite")


def inverse_extension(f: NaturalExtension) -> NaturalExtension:
    """Invert a continuous injective extension with nonvanishing derivative.

    The derivative of the result is the reciprocal of the original
    derivative taken at the inverse image.  Validity is checked by dense
    sampling: finite values and monotonicity (injectivity), then finite
    derivatives, their sign and their zeros without a sign change (see
    ``_touch_zeros``).
    """
    xs = _grid(*_finite_window(f.lo, f.hi, _PROBE_WINDOW), _INVERSE_SAMPLES, cells=True)
    phi, lam = f.real_fn(0), f.real_fn(1)
    values = [phi(t) for t in xs]
    _require_finite("value", xs, values)
    diffs = [b - a for a, b in zip(values, values[1:])]
    if any(d == 0.0 for d in diffs) or (min(diffs) < 0.0 < max(diffs)):
        raise NotInjective("function is not strictly monotone on its domain")
    derivs = [lam(t) for t in xs]
    _require_finite("derivative", xs, derivs)
    zero_tol = 1e-12 * max(1.0, max(abs(d) for d in derivs))
    if (
        any(d == 0.0 for d in derivs)
        or min(derivs) < 0.0 < max(derivs)
        or next(_touch_zeros(f, xs, derivs, zero_tol), None) is not None
    ):
        raise VanishingDerivative("derivative has a zero on the domain")
    ylo, yhi = sorted((values[0] + 0.0, values[-1] + 0.0))  # no signed zero
    inv_expr = InverseExpr(f)
    g = NaturalExtension(inv_expr, ylo, yhi)
    # What compiling the two trees would give, without compiling them; a
    # copy compiles them, and either way eval_at inverts once per point
    g._compiled.update(
        {0: inv_expr.eval_real, 1: lambda y: inv_expr.slope(y, inv_expr.eval_real(y))}
    )
    return g


# -- images of sets -----------------------------------------------------------------


def _deriv_zeros(f: NaturalExtension, a: float, b: float):
    """Zeros of the derivative on [a, b], with or without a sign change;
    returns (zeros, is_constant)."""
    lam = f.real_fn(1)
    xs = _grid(a, b, _ZERO_CELLS)
    vals = [lam(t) for t in xs]
    tol = 1e-12 * max(1.0, max(abs(v) for v in vals))
    if all(abs(v) <= tol for v in vals):
        return [], True
    zeros = [t for t, v in zip(xs, vals) if abs(v) <= tol]
    zeros += _crossings(lam, xs, vals, tol)
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
    breakpoint monads; regions cover the whole continuum."""

    __slots__ = ("breakpoints", "gap_exprs", "monad_rules")

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
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "gap_exprs", tuple(gap_exprs))
        object.__setattr__(self, "monad_rules", tuple(monad_rules))

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
        return self.gap_exprs[i].eval_real(s)

    def eval_at(self, t) -> GeneralizedReal:
        t = as_generalized(t)
        i, on_breakpoint = self._region(t.shadow)
        if on_breakpoint:
            rule = self.monad_rules[i]
            return core._tangent(t, rule.value, rule.slope)
        return gen_eval(self.gap_exprs[i], t)

    def limit_probe(self, xi0: float) -> LimitProbe:
        """Difference quotients at steps 2**-k, k = 4..20, per side; a side
        converges when its last three estimates are Cauchy within 1e-5 and
        the limit exists when both sides agree within 1e-4.  Heuristic."""
        xi0 = core._real(xi0, "point")
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
        xi0 = core._real(xi0, "point")
        i, on_breakpoint = self._region(xi0)
        if not on_breakpoint:
            e = self.gap_exprs[i]
            try:
                return e.deriv().eval_real(xi0)
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
    for i, e in enumerate(solution.gap_exprs):
        if not bps:
            region = "all t"
        elif i == 0:
            region = f"t < {bps[0]!r}"
        elif i == len(bps):
            region = f"t > {bps[-1]!r}"
        else:
            region = f"{bps[i - 1]!r} < t < {bps[i]!r}"
        lo = -_INF if i == 0 else bps[i - 1]
        hi = _INF if i == len(bps) else bps[i]
        de = e.deriv()
        worst = 0.0
        status = "pass"
        detail = ""
        for t in _grid(*_finite_window(lo, hi, 2.0), _ODE_SAMPLES, cells=True):
            try:
                got = de.eval_real(t)
                want = rhs.gap_exprs[i].eval_real(t)
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
