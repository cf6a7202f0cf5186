"""The certified Taylor remainder: the outward-rounded interval, the interval
jets over a tree, and the bound they give, against independent oracles.

mpmath (``mpmath.iv`` at 120 bits, ``mpmath.taylor`` at 50 digits) and
exact rationals are oracles only.  They rest on the premise the intervals
state: IEEE + - * / round to nearest, and the math functions err by at most
1 ulp (glibc on x86-64), so their ends are widened by 2 ulps."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadica import calculus, expr
from monadica.calculus import (
    NaturalExtension,
    _Interval,
    _Jet,
    inverse_extension,
    taylor_expand,
)
from monadica.core import make
from monadica.errors import MonadicaError, OutOfDomain
from monadica.expr import iter_nodes, parse
from test_compile import KINDS, random_tree

mpmath = pytest.importorskip("mpmath")
mp, iv = mpmath.mp, mpmath.iv

X = expr.Var()
ONE = calculus._ONE


def _ends(box):
    """The ends of an mpmath interval as exact mpf values."""
    with mp.workprec(max(iv.prec, 200)):
        return tuple(mp.mpf(v) for v in box._mpi_)


def _contains(ours: _Interval, truth) -> bool:
    """Whether ours holds the mpmath interval truth: every real in it."""
    lo, hi = _ends(truth)
    return ours.lo <= lo and hi <= ours.hi


# -- the interval number ------------------------------------------------------------


def _box(draw_lo: float, width: float) -> tuple[float, float]:
    return draw_lo, draw_lo + width


magnitudes = st.floats(-30.0, 30.0, allow_nan=False)
widths = st.one_of(st.just(0.0), st.floats(1e-12, 8.0))
# boxes near 0 and near multiples of pi/2 as often as anywhere, where the
# trig cases turn and where a sign flips
anchors = st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi, -0.0])
boxes = st.one_of(
    st.tuples(magnitudes, widths),
    st.tuples(anchors, st.floats(-1e-3, 1e-3), widths).map(lambda t: (t[0] + t[1] - t[2] / 2, t[2])),
).map(lambda t: _box(*t))


def _exact(v: float) -> Fraction:
    return Fraction(v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(boxes, boxes)
def test_arithmetic_encloses_the_exact_results(p, q):
    # + - * / of the ends, in exact rationals: each exact result lies
    # between the ends rounded outward
    a, b = _Interval(*p), _Interval(*q)
    pairs = [(x, y) for x in map(_exact, p) for y in map(_exact, q)]
    cases = [(a + b, [x + y for x, y in pairs]), (a - b, [x - y for x, y in pairs]),
             (a * b, [x * y for x, y in pairs])]
    if not q[0] <= 0.0 <= q[1]:
        cases.append((a / b, [x / y for x, y in pairs]))
    for k in (3, 0.1):
        cases.append((a * k, [x * _exact(k) for x in map(_exact, p)]))
        cases.append((a / k, [x / _exact(k) for x in map(_exact, p)]))
        cases.append((a - k, [x - _exact(k) for x in map(_exact, p)]))
    for got, exact in cases:
        # an end that overflows is infinite, which holds everything beyond it
        assert got.lo == -math.inf or _exact(got.lo) <= min(exact), (p, q, got)
        assert got.hi == math.inf or max(exact) <= _exact(got.hi), (p, q, got)


def _iv_box(lo, hi):
    iv.prec = 120
    return iv.mpf([lo, hi])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(boxes)
def test_math_functions_enclose_mpmath_iv(p):
    box, ref = _Interval(*p), _iv_box(*p)
    assert _contains(box.exp(), iv.exp(ref)), p
    assert _contains(box.sin(), iv.sin(ref)), p
    assert _contains(box.cos(), iv.cos(ref)), p
    if p[0] > 0.0:
        assert _contains(box.log(), iv.log(ref)), p
        assert _contains(box.root(2), iv.sqrt(ref)), p
        for m in (3, 5):
            assert _contains(box.root(m), ref ** (iv.mpf(1) / m)), (p, m)
        for alpha in (0.5, -1.5, 2.25, 1.0 / 3.0):
            if p[1] < 1e10:
                assert _contains(box**alpha, ref ** iv.mpf(alpha)), (p, alpha)


def test_cos_and_sin_reach_their_extremes_inside_a_box():
    # the box cos is monotone on from its ends alone would miss the peak at 0
    assert _Interval(-0.1, 0.2).cos().hi == 1.0
    assert _Interval(1.5, 1.7).sin().hi == 1.0
    assert _Interval(3.1, 3.2).cos().lo == -1.0
    assert _Interval(4.7, 4.8).sin().lo == -1.0
    assert (_Interval(2e8, 3e8).sin().lo, _Interval(2e8, 3e8).sin().hi) == (-1.0, 1.0)


def test_a_nan_end_is_never_dropped():
    # [0, 0] * [1, inf] meets 0 * inf; had its upper end alone been NaN, a
    # later product's min and max would skip it: [-1, NaN] * [-2, 3] read
    # [-3, 2], where the 0 it stands for gives [-1, 2] * [-2, 3] = [-4, 6]
    zero, nan = _Interval(0.0, 0.0), _Interval(math.nan, math.nan)
    met = zero * _Interval(1.0, math.inf)
    assert math.isnan(met.lo) and math.isnan(met.hi)
    spread = (met + _Interval(-1.0, 2.0)) * _Interval(-2.0, 3.0)
    assert math.isnan(spread.lo) and math.isnan(spread.hi)
    for got in (nan.exp(), nan.sin(), nan.cos(), nan**-1.5, nan * 2.0, nan / 3.0, -nan):
        assert math.isnan(got.lo) and math.isnan(got.hi), got


# -- interval jets over trees -----------------------------------------------------


class _Mp(expr.Arithmetic):
    """mpmath numbers at the working precision, with the rules' checks."""

    add, sub, mul = staticmethod(lambda a, b: a + b), staticmethod(lambda a, b: a - b), staticmethod(lambda a, b: a * b)
    div, neg = staticmethod(lambda a, b: a / b), staticmethod(lambda a: -a)
    exp, log, sin, cos = (staticmethod(getattr(mpmath, n)) for n in ("exp", "log", "sin", "cos"))

    @staticmethod
    def const(c):
        return mpmath.mpf(c)

    @staticmethod
    def pow_int(a, m):
        return a**m

    @staticmethod
    def pow_real(a, alpha):
        return a ** mpmath.mpf(alpha)

    @staticmethod
    def root(a, m):
        return mpmath.root(a, m)

    def nonzero(self, a, message, shown):
        if a == 0:
            raise OutOfDomain("zero")

    def positive(self, a, message):
        if not a > 0:
            raise OutOfDomain("not positive")


def _mp_function(tree):
    return lambda t: _Mp().walk(tree, t)


def _reference(tree, t, n, digits=50):
    """mpmath's Taylor coefficients of tree at t, orders 0..n, at 50 digits,
    or None where tree is not defined near t.  Coefficient 0 is the value:
    the differences mpmath.taylor takes are accurate to 50 digits of 1, not
    of a subnormal t."""
    fn = _mp_function(tree)
    with mp.workdps(digits):
        try:
            return [fn(mpmath.mpf(t)), *mpmath.taylor(fn, mpmath.mpf(t), n)[1:]]
        except (OutOfDomain, ZeroDivisionError, ValueError):
            return None


def _trees():
    rng = random.Random(38)
    out = []
    while len(out) < 60:
        out.append(random_tree(rng, 3, [], X))
    return out


TREES = _trees()


def test_the_trees_have_every_node_type():
    kinds = {type(n).__name__ for t in TREES for n in iter_nodes(t)}
    assert kinds >= {"Add", "Sub", "Mul", "Div", "Neg", "PowInt", "PowReal", "Root",
                     "Exp", "Log", "Sin", "Cos", "Var", "Const"}
    assert "compose" in KINDS


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(TREES))), st.floats(-2.0, 2.0), st.floats(1e-3, 0.5),
       st.integers(0, 8), st.floats(0.0, 1.0))
def test_jet_coefficients_enclose_mpmaths_taylor_coefficients(i, lo, width, n, where):
    # every coefficient of the jet over [lo, lo + width] holds the
    # coefficient f^(k)(t) / k! at a point t of the box; a coefficient past
    # the jet's end is exactly zero
    tree = TREES[i]
    box = _Interval(lo, lo + width)
    try:
        jet = _Jet(n + 1).walk(tree, [box, ONE])
    except OutOfDomain:
        return  # not proven on the box: nothing is claimed
    for t in (lo, lo + width * where, lo + width):
        want = _reference(tree, t, n)
        if want is None:
            continue
        for k, c in enumerate(want):
            if k < len(jet):
                assert jet[k].lo <= c <= jet[k].hi, (str(tree), lo, width, t, k, jet[k], c)
            else:
                assert abs(c) <= mpmath.mpf(10) ** -30, (str(tree), t, k, c)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(TREES))), st.floats(-1.5, 1.5), st.floats(-0.6, 0.6),
       st.integers(0, 8))
def test_the_remainder_bound_holds_the_exact_remainder(i, center, step, order):
    # |f(x) - T_n(x)| with T_n's coefficients from mpmath, at 80 digits: a
    # step of 1e-9 at order 4 leaves 4e-47 of terms near 1e-9
    x = center + step
    if x == center:
        return
    tree = TREES[i]
    f = NaturalExtension(tree, -math.inf, math.inf)
    try:
        got = taylor_expand(f, center, order, make(x))
    except MonadicaError:
        return
    want = _reference(tree, center, order, 80)
    with mp.workdps(80):
        fx = _mp_function(tree)(mpmath.mpf(x))
        h = mpmath.mpf(x) - mpmath.mpf(center)
        terms = [c * h**k for k, c in enumerate(want)]
        remainder = abs(fx - sum(terms))
        # the reference's own rounding, far below any float the bound can miss by
        slack = mpmath.mpf(10) ** -70 * max([1, abs(fx), *map(abs, terms)])
    assert got.remainder_bound >= remainder - slack, (str(tree), center, x, order, got, remainder)


# -- what is refused, and what is exact -------------------------------------------


def test_an_inverse_is_refused_with_a_typed_error():
    # a lifted node's value comes from bisection: it has no enclosure
    g = inverse_extension(NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0))
    with pytest.raises(
        OutOfDomain,
        match=r"^the remainder of the expansion about 0\.5 at 1\.0 is not proven: "
        r"inverse\(\(exp\(x\) \+ x\)\) has no interval enclosure$",
    ):
        taylor_expand(g, 0.5, 2, make(1.0))


@pytest.mark.parametrize(
    "text, order",
    [("x^2", 2), ("x^3 - 2*x + 1", 3), ("(x + 1)*(x - 3)*x", 4), ("x^5", 5), ("0.5*x^4 - x", 7)],
)
def test_a_polynomials_bound_is_exactly_zero(text, order):
    # coefficients past a polynomial's degree are exact zeros, never widened
    f = NaturalExtension.on_interval(parse(text))
    assert taylor_expand(f, -0.7, order, make(1.1)).remainder_bound == 0.0


def test_a_bound_that_underflows_is_rounded_up_to_the_least_float():
    # h^170 / 170! is below the least subnormal; the bound stays above the
    # true remainder, at 5e-324, rather than 0.0
    f = NaturalExtension.on_interval(parse("sin(x)"), -2.0, 2.0)
    assert taylor_expand(f, 0.3, 169, make(0.8)).remainder_bound == 5e-324
