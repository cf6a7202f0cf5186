import copy
import functools
import json
import math
import pickle
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadica import calculus, core, expr, sets
from monadica.calculus import (
    NaturalExtension,
    gen_eval,
    image_set,
    inverse_extension,
    mean_value_point,
    taylor_expand,
)
from monadica.core import make
from monadica.errors import (
    DomainError,
    MonadicaError,
    NonFiniteInput,
    NotInjective,
    NotDifferentiable,
    NotInvertible,
    OutOfDomain,
    VanishingDerivative,
)
from monadica.expr import Const, Cos, Exp, Log, PowReal, Sin, Var, compile_real, parse, pow_int
from monadica.sets import GeneralizedSet, RealSet, monad
from monadica.verify import value_close
from test_compile import random_tree

X = Var()
DX = make(0, {"e:1": 1})

exp_f = NaturalExtension.on_interval(Exp(X))
log_f = NaturalExtension.on_interval(Log(X), 0.0, math.inf)
sin_f = NaturalExtension.on_interval(Sin(X))
cos_f = NaturalExtension.on_interval(Cos(X))
square_f = NaturalExtension.on_interval(pow_int(X, 2))


def _nodes(lo, hi, n):
    """The n + 1 nodes of n equal cells on [lo, hi], as the sampling loops
    read them: ``_Nodes`` over the unit table ``_unit(n)``."""
    xs = calculus._Nodes(lo, hi - lo, calculus._unit(n))
    return [xs[i] for i in range(n + 1)]


def _count_bisections(monkeypatch):
    """The argument tuples of every ``calculus._bisect`` call from now on."""
    calls = []
    bisect = calculus._bisect

    def counting(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(calculus, "_bisect", counting)
    return calls


class TestNaturalExtension:
    def test_exponential_of_an_infinitesimal(self):
        assert exp_f.eval_at(DX) == make(1, {"e:1": 1})

    def test_log_sin_cos_identities(self):
        assert log_f.eval_at(make(1, {"e:1": 1})) == DX
        assert sin_f.eval_at(DX) == DX
        assert cos_f.eval_at(DX) == core.ONE

    def test_power_identity(self):
        half = NaturalExtension.on_interval(PowReal(X, 0.5), 0.0, math.inf)
        assert half.eval_at(make(1, {"e:1": 1})) == make(1, {"e:1": 0.5})

    def test_real_inputs_give_real_outputs(self):
        got = exp_f.eval_at(make(1))
        assert got.is_real and got.shadow == math.e

    def test_domain_is_enforced(self):
        with pytest.raises(OutOfDomain):
            log_f.eval_at(make(-1, {"e:1": 1}))

    def test_construction_validates_the_domain(self):
        with pytest.raises(DomainError):
            NaturalExtension.on_interval(Log(X), -1.0, 1.0)

    def test_derivative_at_shadow(self):
        assert square_f.deriv_at(make(3, {"e:1": 1})) == 6.0
        assert exp_f.deriv_at(make(0)) == 1.0

    def test_derivative_is_constant_on_the_monad(self):
        assert square_f.deriv_at(make(3, {"e:2": 5})) == square_f.deriv_at(make(3))

    def test_tangent_identity_on_the_monad(self):
        x = make(3, {"e:1": 2, "h": -1})
        got = square_f.eval_at(x)
        want = core.add(9.0, core.mul(6.0, core.differential(x)))
        assert got == want


class TestStructuralEvaluation:
    def test_polynomial_example(self):
        e = pow_int(X, 2) + 3 * X
        assert gen_eval(e, make(2, {"e:1": 1})) == make(10, {"e:1": 7})

    def test_pythagorean_identity_has_exact_zero_dpart(self):
        e = pow_int(Sin(X), 2) + pow_int(Cos(X), 2)
        got = gen_eval(e, make(0.7, {"e:1": 1}))
        assert got.is_real
        assert got.shadow == pytest.approx(1.0, abs=1e-15)

    def test_real_input_gives_real_output(self):
        got = gen_eval(Exp(X), make(1))
        assert got.is_real and got.shadow == math.e

    def test_matches_natural_extension(self):
        e = Exp(Const(0.5) * X) * Sin(X) + pow_int(X, 3)
        f = NaturalExtension.on_interval(e, -2.0, 2.0)
        x = make(1.25, {"e:2": 2, "h": -0.5})
        assert value_close(gen_eval(e, x), f.eval_at(x), 1e-9)

    def test_division_by_an_infinitesimal_denominator(self):
        with pytest.raises(NotInvertible):
            gen_eval(Const(1.0) / X, DX)


class TestHigherExtensions:
    def test_square_second_extension(self):
        got = square_f.eval_higher(2, make(5, {"e:1": 1}))
        assert got == make(10, {"e:1": 2})
        assert square_f.deriv_higher(2, make(5, {"e:1": 1})) == 2.0

    def test_square_vanishes_beyond_order_three(self):
        x = make(5, {"e:1": 1})
        assert square_f.eval_higher(3, x) == make(2)
        assert square_f.eval_higher(4, x) == core.ZERO
        assert square_f.deriv_higher(3, x) == 0.0

    def test_exponential_is_a_fixed_point(self):
        x = make(0.3, {"e:2": 1.5})
        for m in (1, 2, 5, 8):
            assert exp_f.eval_higher(m, x) == exp_f.eval_at(x)

    def test_sine_fourth_extension_is_minus_cosine(self):
        x = make(0.4, {"e:1": 2})
        got = sin_f.eval_higher(4, x)
        want = core.neg(cos_f.eval_at(x))
        assert value_close(got, want, 1e-15)

    def test_first_extension_is_the_natural_one(self):
        x = make(1.1, {"h": 3})
        assert sin_f.eval_higher(1, x) == sin_f.eval_at(x)

    @pytest.mark.parametrize("method", ["eval_higher", "deriv_higher"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_an_undefined_derivative_is_not_differentiable(self, method, m):
        # built without on_interval's probes, so 0 lies inside the domain
        f = NaturalExtension(parse("1/x"), -1.0, 1.0)
        with pytest.raises(NotDifferentiable, match=f"^derivative of order {m} is not defined at 0.0$"):
            getattr(f, method)(m, make(0.0, {"h": 1.0}))


class TestTaylor:
    def test_exponential_witness(self):
        res = taylor_expand(exp_f, 0.0, 3, make(0.5, {"e:1": 1}))
        assert res.partial_sum == pytest.approx(1.6458333333333333, abs=1e-12)
        assert res.theta is not None and 0 < res.theta < 1
        lagrange = res.partial_sum + 0.5**4 / 24 * math.exp(0.5 * res.theta)
        assert abs(math.exp(0.5) - lagrange) <= 1e-10
        assert res.theta == pytest.approx(0.2068, abs=1e-3)

    def test_remainder_bound_holds(self):
        res = taylor_expand(sin_f, 0.25, 2, make(1.5))
        assert abs(math.sin(1.5) - res.partial_sum) <= res.remainder_bound + 1e-15

    def test_polynomial_is_exact(self):
        res = taylor_expand(square_f, 1.0, 2, make(3))
        assert res.partial_sum == 9.0
        assert res.remainder_bound == 0.0
        assert res.theta is not None and 0 < res.theta < 1

    def test_expansion_point_must_differ(self):
        with pytest.raises(OutOfDomain):
            taylor_expand(exp_f, 0.5, 2, make(0.5, {"e:1": 1}))

    def test_the_order_is_at_most_169(self):
        # 170! is the last factorial a float holds, and order n divides by (n + 1)!
        res = taylor_expand(exp_f, 0.0, 169, make(0.5))
        assert res.partial_sum == pytest.approx(math.exp(0.5), abs=1e-15)
        for order in (170, 400):
            with pytest.raises(DomainError) as info:
                taylor_expand(exp_f, 0.0, order, make(0.5))
            assert str(info.value) == (
                f"expansion order must be an integer from 0 to 169, not {order}"
            )

    def test_a_power_of_the_step_still_overflows(self):
        with pytest.raises(OutOfDomain, match="a power of the step 10000000000.0 from"):
            taylor_expand(exp_f, 0.0, 40, make(1e10))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_no_witness_at_a_pole(self, order):
        # at orders 1 and 3 the gap changes sign across the pole, whose
        # bisection once gave theta = 0.5668, where -0.5 + 1.1 * theta is it
        f = NaturalExtension.on_interval(parse("1/(x-0.123456)"), -1, 1)
        assert taylor_expand(f, -0.5, order, make(0.6)).theta is None


class TestMeanValue:
    def test_square_midpoint(self):
        gamma = mean_value_point(square_f, make(1), make(2))
        assert gamma == pytest.approx(1.5, abs=1e-10)

    def test_cube_root_of_three(self):
        cube = NaturalExtension.on_interval(pow_int(X, 3))
        gamma = mean_value_point(cube, make(0), make(3))
        assert gamma == pytest.approx(math.sqrt(3), abs=1e-10)

    def test_indiscernible_endpoints_rejected(self):
        with pytest.raises(DomainError):
            mean_value_point(square_f, DX, make(0, {"e:2": 1}))

    def test_identity_assembles_with_nonreal_endpoints(self):
        f = NaturalExtension.on_interval(Sin(X) + Const(0.25) * pow_int(X, 2))
        a = make(0.2, {"e:1": 1.5, "h": -2})
        b = make(1.1, {"e:2": -0.5})
        gamma = mean_value_point(f, a, b)
        assert a.shadow < gamma < b.shadow
        slope = f.deriv.eval_real(gamma)
        lhs = core.sub(f.eval_at(b), f.eval_at(a))
        rhs = core.add(
            core.add(
                core.mul(slope, core.sub(b, a)),
                core.mul(f.deriv_at(b) - slope, core.differential(b)),
            ),
            core.mul(slope - f.deriv_at(a), core.differential(a)),
        )
        assert abs(lhs.shadow - rhs.shadow) <= 1e-9
        for gid in set(lhs.dpart) | set(rhs.dpart):
            assert lhs.coefficient(gid) == pytest.approx(rhs.coefficient(gid), abs=1e-12)

    def test_no_point_across_a_pole_is_a_domain_error(self):
        # f' < 0 on both sides of the pole, but the secant slope is positive,
        # so no mean-value point exists; the grid minimum is no answer
        f = NaturalExtension.on_interval(parse("1/(x-0.123456)"), -1, 1)
        with pytest.raises(DomainError, match=r"no mean-value point found on \[-0\.5, 0\.6\]"):
            mean_value_point(f, make(-0.5), make(0.6))

    def test_a_crossing_at_a_pole_is_no_root(self):
        # f' - slope changes sign across the pole, and bisecting that cell
        # once returned 0.12345599999999979, the pole, with f'(c) - slope
        # about 2.2e47; |f' - slope| grows toward it, so it is no root
        f = NaturalExtension.on_interval(parse("1/(x-0.123456)^2"), -1, 1)
        with pytest.raises(
            DomainError,
            match=r"no mean-value point found on \[-0\.5, 0\.6\]: .* the crossing is not a root",
        ):
            mean_value_point(f, make(-0.5), make(0.6))


class TestFloatEdges:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: taylor_expand(NaturalExtension.on_interval(X), -1e308, 2, make(1e308)),
            lambda: taylor_expand(NaturalExtension.on_interval(Const(0.0)), -1e308, 2, make(0.5)),
            lambda: mean_value_point(NaturalExtension.on_interval(X), make(-1e308), make(1e308)),
            # on (-1.5, 1.5), where 1e308 * x is finite
            lambda: mean_value_point(
                NaturalExtension.on_interval(Const(1e308) * X, -1.5, 1.5), make(-1), make(1)
            ),
        ],
        ids=["taylor_step", "taylor_power", "mean_value_width", "mean_value_slope"],
    )
    def test_overflow_is_out_of_domain(self, call):
        with pytest.raises(OutOfDomain, match="overflows"):
            call()


class TestInversion:
    def test_exponential_inverts_to_log(self):
        inv = inverse_extension(exp_f)
        got = inv.eval_at(make(1, {"e:1": 1}))
        assert value_close(got, make(0, {"e:1": 1}), 1e-9)
        assert inv.deriv_at(make(math.e)) == pytest.approx(1 / math.e, rel=1e-9)

    def test_round_trip_through_the_inverse(self):
        inv = inverse_extension(exp_f)
        x = make(0.75, {"e:2": 2})
        assert value_close(inv.eval_at(exp_f.eval_at(x)), x, 1e-9)

    def test_square_is_not_injective_on_a_symmetric_interval(self):
        f = NaturalExtension.on_interval(pow_int(X, 2), -1.0, 1.0)
        with pytest.raises(NotInjective):
            inverse_extension(f)

    def test_cube_has_a_vanishing_derivative(self):
        f = NaturalExtension.on_interval(pow_int(X, 3), -1.0, 1.0)
        with pytest.raises(VanishingDerivative):
            inverse_extension(f)

    def test_one_inversion_and_no_compile_per_evaluation(self, monkeypatch):
        f = NaturalExtension.on_interval(parse("exp(x) + 0.5 * x^3"), -2.0, 2.0)
        inv = inverse_extension(f)
        counts = {"bisect": 0, "compile": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(calculus, "_bisect", counting("bisect", calculus._bisect))
        monkeypatch.setattr(expr._Emit, "build", counting("compile", expr._Emit.build))
        ys = [-3.0, -0.4, 0.0, 1.0, 2.5, 7.0]
        got = [inv.eval_at(make(y, {"h": 1.0, "e:1": -2.0})) for y in ys]
        assert counts == {"bisect": len(ys), "compile": 0}
        monkeypatch.undo()
        # bit for bit what the compiled trees of the inverse give
        value, slope = compile_real(inv.expr), compile_real(inv.deriv)
        for y, g in zip(ys, got):
            assert repr(g) == repr(make(value(y), {"h": slope(y), "e:1": -2.0 * slope(y)}))

    @pytest.mark.parametrize(
        "round_trip",
        [lambda g: g, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["original", "deepcopy", "pickle"],
    )
    def test_a_copied_or_unpickled_inverse_inverts_once_per_evaluation(
        self, monkeypatch, round_trip
    ):
        f = NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0)
        want = inverse_extension(f).eval_at(make(1.0, {"h": 1.0}))
        got = round_trip(inverse_extension(f))
        calls = _count_bisections(monkeypatch)
        assert repr(got.eval_at(make(1.0, {"h": 1.0}))) == repr(want)
        assert len(calls) == 1

    def test_the_last_root_is_kept_by_value_and_sign(self, monkeypatch):
        g = inverse_extension(NaturalExtension.on_interval(parse("exp(x) + x - 1"), -2.0, 2.0))
        inv = g.expr
        calls = _count_bisections(monkeypatch)
        # equal floats that are distinct objects invert once
        a, b = float("0.25"), float("0.25")
        assert a is not b and inv.invert(a) == inv.invert(b)
        assert len(calls) == 1
        # 0.0 == -0.0, but they are different inputs
        inv.invert(0.0)
        inv.invert(-0.0)
        inv.invert(-0.0)
        assert len(calls) == 3

    def test_concurrent_evaluations_each_get_their_own_root(self):
        f = NaturalExtension.on_interval(parse("exp(x) + 0.5 * x^3"), -2.0, 2.0)
        # few values, so threads often evaluate the same float at once
        ys = [-3.0, 0.5, 4.0]
        want = {y: inverse_extension(f).eval_at(make(y, {"h": 1.0})) for y in ys}
        inv = inverse_extension(f)
        got, errors = [], []

        def work(offset):
            try:
                for k in range(300):
                    y = ys[(k + offset) % len(ys)]
                    got.append((y, inv.eval_at(make(y, {"h": 1.0}))))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(got) == 8 * 300
        assert all(repr(g) == repr(want[y]) for y, g in got)


class TestImages:
    def test_exponential_maps_monads_onto_monads(self):
        got = image_set(exp_f, monad(RealSet.open(-1, 1)))
        assert got == monad(RealSet.open(math.exp(-1), math.exp(1)))

    def test_sine_over_a_period(self):
        got = image_set(sin_f, monad(RealSet.closed(-math.pi / 2, 3 * math.pi / 2)))
        assert got == GeneralizedSet(RealSet.open(-1, 1), (-1.0, 1.0))

    def test_square_collapses_the_critical_monad(self):
        got = image_set(square_f, monad(RealSet.closed(-1, 1)))
        assert got == GeneralizedSet(RealSet.interval(0, 1, False, True), (0.0,))

    def test_points_and_extras(self):
        g = GeneralizedSet(RealSet.point(0.5), (2.0,))
        got = image_set(exp_f, g)
        assert got == GeneralizedSet(
            RealSet.point(math.exp(0.5)), (math.exp(2.0),)
        )

    def test_constant_functions_collapse_to_a_bare_point(self):
        const_f = NaturalExtension.on_interval(Const(2.0))
        got = image_set(const_f, monad(RealSet.closed(0, 1)))
        assert got == GeneralizedSet(RealSet.empty(), (2.0,))

    def test_unbounded_bases_rejected(self):
        with pytest.raises(DomainError):
            image_set(exp_f, sets.hat_interval("ray_ge", 0))


class TestTouchingZeros:
    """Zeros of the derivative without a sign change, between grid points."""

    def test_cube_image_collapses_the_double_zero_off_the_grid(self):
        cube = NaturalExtension.on_interval(pow_int(X, 3))
        got = image_set(cube, monad(RealSet.closed(-1, 1.1)))
        left, right = got.base.intervals
        assert left.lo == -1.0 and right.hi == pytest.approx(1.331)
        assert abs(left.hi) <= 1e-12 and abs(right.lo) <= 1e-12
        assert len(got.extras) == 1 and abs(got.extras[0]) <= 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_shifted_cubes(self, seed):
        rng = random.Random(seed)
        r, c = rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)
        e = pow_int(X - Const(r), 3) + Const(c)
        lo, hi = r - 1.0, r + 1.1
        nodes = _nodes(lo, hi, calculus._ZERO_CELLS)
        assert min(abs(t - r) for t in nodes) > 1e-4  # r is off the grid
        got = image_set(NaturalExtension.on_interval(e), monad(RealSet.closed(lo, hi)))
        assert any(abs(y - c) <= 1e-12 for y in got.extras)
        with pytest.raises(VanishingDerivative):
            inverse_extension(NaturalExtension.on_interval(e, lo, hi))

    def test_a_zero_at_a_grid_node_is_found_once(self):
        # f' = 4 (x - 1e-9)^3 is within tolerance at the node 0 and changes
        # sign there; bisecting that cell too would stop about 1e-4 away
        quartic = NaturalExtension.on_interval(pow_int(X - Const(1e-9), 4))
        assert calculus._deriv_zeros(quartic, -1.0, 1.0) == ([0.0], False)


class TestRootKernel:
    @pytest.mark.parametrize(
        "a, b, root",
        [(-1 / 1024, 1 / 1024, 1e-300), (1e-9, 1.0, 2e-9)],
    )
    def test_bisection_stops_on_relative_width(self, a, b, root):
        calls = []

        def g(t):
            calls.append(t)
            return t - root

        got, g_got = calculus._bisect(g, a, b, g(a))
        assert abs(got - root) <= 1e-15 and g_got == got - root
        # halving to float exhaustion would take 80 to 1 000 calls here
        assert len(calls) <= 64

    def test_crossings_bisect_only_the_cells_asked_for(self):
        calls = []

        def g(t):
            calls.append(t)
            return math.cos(t)

        xs = _nodes(0.0, 10.0, 10)
        vals = [g(t) for t in xs]
        calls.clear()
        first = next(calculus._crossings(g, xs, vals, 0.0))
        assert first == pytest.approx(math.pi / 2, abs=1e-14)
        assert len(calls) <= 64
        roots = list(calculus._crossings(g, xs, vals, 0.0))
        assert roots == pytest.approx([math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2])

    def test_crossings_skip_a_sign_change_at_a_pole(self):
        # tan changes sign at its roots 0 and pi and at its pole pi / 2
        xs = _nodes(-0.3, 3.4, 16)
        vals = [math.tan(t) for t in xs]
        assert len(list(calculus._sign_changes(vals, 0.0))) == 3
        roots = list(calculus._crossings(math.tan, xs, vals, 0.0))
        assert roots == pytest.approx([0.0, math.pi], abs=1e-14)


def test_composition_matches_pointwise_product_rule():
    inner = NaturalExtension.on_interval(Sin(X), -2.0, 2.0)
    outer = NaturalExtension.on_interval(Exp(X))
    comp = calculus.compose_ext(outer, inner)
    x = make(0.8, {"e:1": 3})
    got = comp.deriv_at(x)
    want = outer.deriv_at(make(math.sin(0.8))) * inner.deriv_at(x)
    assert got == pytest.approx(want, rel=1e-12)


# -- the domain check against the open RealSet it replaced ---------------------------

_RANGES = [(-1.5, 2.0), (0.0, 1.0), (-0.0, 3.0), (-math.inf, 0.0), (1.0, math.inf),
           (-math.inf, math.inf)]


def rejection(call) -> str | None:
    """None when call returns, else the OutOfDomain message it raises."""
    try:
        call()
    except OutOfDomain as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("lo, hi", _RANGES)
def test_domain_checks_accept_exactly_the_open_interval(lo, hi):
    f = NaturalExtension.on_interval(X, lo, hi)
    inside = RealSet.open(lo, hi).contains
    interior = 0.25 * max(lo, -4.0) + 0.75 * min(hi, 4.0)
    points = [lo, hi, interior, -0.0, 0.0, math.inf, -math.inf, math.nan, 0, 1, -2, 3]
    for p in points:
        # eval_at and deriv_at see only finite shadows: the ring refuses the rest
        if math.isfinite(p):
            message = f"shadow {float(p) + 0.0!r} lies outside the domain"
            want = None if inside(p) else message
            assert rejection(lambda: f.eval_at(p)) == want, p
            assert rejection(lambda: f.deriv_at(make(p, {"h": 1.0}))) == want, p
        # the center is checked as given, -0.0 included
        x = interior if p != interior else (interior + min(hi, 4.0)) / 2.0
        want = None if inside(p) else f"center {float(p)!r} lies outside the domain"
        assert rejection(lambda: taylor_expand(f, p, 1, x)) == want, p
        if math.isfinite(p) and p != interior:
            a, b = sorted((float(p) + 0.0, interior))
            closed = GeneralizedSet(RealSet.closed(a, b))
            want = None if inside(a) and inside(b) else (
                f"the closed interval [{a!r}, {b!r}] must lie inside the domain")
            assert rejection(lambda: image_set(f, closed)) == want, p
            point = GeneralizedSet(RealSet.point(p))
            want = None if inside(p) else f"shadow {float(p) + 0.0!r} lies outside the domain"
            assert rejection(lambda: image_set(f, point)) == want, p


@pytest.mark.parametrize("text, message", [
    # inf - inf beyond |x| = 31.97: the validity probes, which stop at
    # +-31.75, pass, and the inverse's outermost samples give NaN
    ("x + (x*x*1.76e305 - x*x*1.76e305)", "function has value nan at -31.96875, which is not finite"),
    ("x + (exp(x)*2.4e294 - exp(x)*2.4e294)", "function has value nan at 31.96875, which is not finite"),
    # infinite at every probe: no extension is built
    ("(x + 100)*1e308", "function is not valid on (-inf, inf): value inf and derivative 1e+308 at "
                        "-31.751937984496124 are not both finite"),
])
def test_an_inverse_range_that_is_no_open_interval_is_a_domain_error(text, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        inverse_extension(NaturalExtension.on_interval(parse(text)))


@pytest.mark.parametrize("text, lo, hi, message", [
    ("x*1e307", -math.inf, math.inf, "value -inf and derivative 1e+307 at -31.751937984496124"),
    # a finite value whose derivative overflows
    ("(x*1e300)*(x*1e300)", 1e-155, 2e-155,
     "value 1.0077669611201253e+290 and derivative inf at 1.0038759689922482e-155"),
])
def test_on_interval_requires_a_finite_value_and_derivative(text, lo, hi, message):
    want = f"function is not valid on ({float(lo)}, {float(hi)}): {message} are not both finite"
    with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
        NaturalExtension.on_interval(parse(text), lo, hi)


@pytest.mark.parametrize("method", ["eval_at", "eval_higher"])
@pytest.mark.parametrize("x, shadow", [(1000.0, "1000.0"), (make(1.0, {"h": 1e300}), "1.0")])
def test_an_extension_that_is_not_finite_names_the_input_shadow(method, x, shadow):
    # the probes, 64 wide, pass; at 1000 the value overflows, and at 1 the
    # coefficient of h does
    f = NaturalExtension.on_interval(parse("x*1e306"))
    call = f.eval_at if method == "eval_at" else lambda x: f.eval_higher(1, x)
    want = f"the extension is not finite at shadow {shadow}"
    with pytest.raises(NonFiniteInput, match=f"^{re.escape(want)}$"):
        call(x)


# -- the Taylor kernel against the two scans it replaced ------------------------------
# The remainder bound once sampled its own grid, lower end first; it is kept
# here as an oracle, and the witness is checked against the reference search.


def _parent_grid(lo, hi, n):
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


def _parent_max_abs_on_segment(fn, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    xs = _parent_grid(lo, hi, 2048)
    vals = [abs(fn(t)) for t in xs]
    best = max(range(len(xs)), key=lambda i: vals[i])
    a = xs[max(0, best - 1)]
    b = xs[min(2048, best + 1)]
    for _ in range(60):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if abs(fn(m1)) < abs(fn(m2)):
            a = m1
        else:
            b = m2
    return max(vals[best], abs(fn((a + b) / 2.0)))


def _parent_taylor(f, center, order, x):
    """taylor_expand at a float x: the parent's partial sum and bound, and
    the witness by the reference root search (``_reference_first_root``)."""
    h = x - center
    lams = f.deriv_exprs(order + 1)
    partial = 0.0
    for k in range(order + 1):
        partial += lams[k].eval_real(center) * h**k / math.factorial(k)
    target = f.real_fn(0)(x)
    scale = h ** (order + 1) / math.factorial(order + 1)
    top = f.real_fn(order + 1)

    def gap(theta):
        return target - partial - scale * top(center + theta * h)

    found = _reference_first_root(gap, 0.0, 1.0, 1e-13 * max(1.0, abs(target)))
    theta = found[0] if found else None
    bound = _parent_max_abs_on_segment(top, center, x) * abs(h) ** (order + 1)
    return partial, bound / math.factorial(order + 1), theta


def _taylor_outcome(call):
    try:
        got = call()
    except MonadicaError:
        return None
    if isinstance(got, calculus.TaylorExpansion):
        got = got.partial_sum, got.remainder_bound, got.theta
    return tuple(map(repr, got))


def _resolved(fn, lo, hi):
    """Whether the grid resolves the largest |fn| on the segment: the samples
    beside the sampled maximum are at least half of it.  Across a pole, or on
    rounding noise, the maximum is wherever a grid puts a node nearest the
    spike, so two grids an ulp apart give unrelated bounds."""
    mags = [abs(fn(t)) for t in _parent_grid(min(lo, hi), max(lo, hi), 2048)]
    best = max(range(len(mags)), key=mags.__getitem__)
    beside = [mags[j] for j in (best - 1, best + 1) if 0 <= j < len(mags)]
    return all(m >= mags[best] / 2.0 for m in beside)


def _solves_lagrange(f, center, order, x, theta):
    """The benchmark oracle's check of a witness: 0 < theta < 1, and
    f^(n+1)(center + theta h) h^(n+1) / (n+1)! is f(x) - P_n(x) to 1e-8 of
    the largest of 1, |f(x)| and the sizes of the Taylor terms."""
    h = x - center
    terms = [f.real_fn(k)(center) * h**k / math.factorial(k) for k in range(order + 1)]
    target = f.real_fn(0)(x)
    scale = max(1.0, abs(target), *map(abs, terms))
    top = f.real_fn(order + 1)(center + theta * h) * h ** (order + 1) / math.factorial(order + 1)
    return 0.0 < theta < 1.0 and abs(target - sum(terms) - top) <= 1e-8 * scale


def test_taylor_matches_the_separate_scans_it_replaced():
    compared = {"ahead": 0, "behind": 0, "unresolved": 0}
    witnesses = 0
    for seed in range(30):
        rng = random.Random(seed)
        tree = random_tree(rng, 3, [], X)
        center = rng.uniform(-2.0, 2.0)
        for order in range(4):
            for side in ("ahead", "behind"):
                step = rng.uniform(0.05, 1.5)
                x = center + step if side == "ahead" else center - step
                f = NaturalExtension(tree, -math.inf, math.inf)
                want = _taylor_outcome(lambda: _parent_taylor(f, center, order, x))
                got = _taylor_outcome(lambda: taylor_expand(f, center, order, make(x)))
                if want is None or got is None:
                    assert want == got, (seed, order, side)
                    continue
                if got[2] != "None":
                    assert _solves_lagrange(f, center, order, x, float(got[2])), (seed, order)
                    witnesses += 1
                if side == "ahead":
                    # the same grid, so the same floats
                    assert got == want, (seed, order, str(tree))
                else:
                    # the bound grid now starts at the center: the witness
                    # reads the same nodes, the bound moves by an ulp or so
                    assert (got[0], got[2]) == (want[0], want[2]), (seed, order, str(tree))
                    if not _resolved(f.real_fn(order + 1), center, x):
                        compared["unresolved"] += 1
                        continue
                    a, b = float(want[1]), float(got[1])
                    assert abs(a - b) <= 1e-14 * max(abs(a), abs(b)), (seed, order, str(tree))
                compared[side] += 1
    assert compared["ahead"] >= 60 and compared["behind"] >= 60, compared
    assert witnesses >= 150


def _count_samples(f, k):
    """Count f's k-th derivative samples: a list of every point its kernel
    evaluates, one-point calls included, and a list of the sizes of the
    tables of more than one node it evaluates."""
    calls, grids = [], []
    kernel = f.real_fn(k).args[0]

    def counted(lo, w, units, out):
        if len(units) > 1:
            grids.append(len(units))
        calls.extend(lo + w * u for u in units)
        return kernel(lo, w, units, out)

    f._compiled[k] = functools.partial(expr._value_at, counted)
    return calls, grids


@pytest.mark.parametrize("order", [1, 3])
def test_taylor_samples_the_top_derivative_once(order):
    text = "exp(sin(x))*x^3 + log(2+cos(x))/(1+x^2)"
    f = NaturalExtension.on_interval(parse(text))
    calls, _ = _count_samples(f, order + 1)
    got = taylor_expand(f, 0.3, order, make(0.8))
    # the grid, the ternary refinement, and at most one bisection, each
    # point counted whichever form evaluates it: the witness search reads
    # the grid's samples and evaluates no node of its own
    assert 2049 + 121 <= len(calls) <= 2049 + 121 + 64
    want = _parent_taylor(f, 0.3, order, 0.8)
    assert _taylor_outcome(lambda: got) == _taylor_outcome(lambda: want)


def _magnitude(rng):
    return rng.choice((-1.0, 1.0)) * math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1070, 1000))


def _rounded_once(lo, hi, n):
    """lo plus the nearest float to each exact offset (hi - lo) * i / n."""
    w = Fraction(hi - lo)
    return [lo + float(w * Fraction(i, n)) for i in range(n + 1)]


@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_node_grids_are_the_scaled_index_formula(n):
    # (hi - lo) * (i / n) is (hi - lo) * i / n for n a power of two, except
    # where (hi - lo) / n is below the normal range: there the offset
    # rounds once, to the nearest float, and the formula rounds twice
    rng = random.Random(n)
    subnormal = 0
    for _ in range(300):
        lo, hi = _magnitude(rng), _magnitude(rng)
        for a, b in ((lo, hi), (hi, lo)):
            if abs(b - a) / n >= sys.float_info.min:
                assert _nodes(a, b, n) == _parent_grid(a, b, n), (a, b)
            else:
                subnormal += 1
                assert _nodes(a, b, n) == _rounded_once(a, b, n), (a, b)
    assert subnormal < 10


@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_node_grids_round_subnormal_offsets_once(n):
    rng = random.Random(n)
    double_rounded = 0
    for _ in range(40):
        lo, hi = (math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1040, -1005)) for _ in "ab")
        want = _rounded_once(lo, hi, n)
        assert _nodes(lo, hi, n) == want, (lo, hi)
        double_rounded += want != _parent_grid(lo, hi, n)
    assert double_rounded > 0


# -- scans on samples that are NaN -------------------------------------------------
# A kernel returns NaN without raising where an overflowing product meets
# its negation (inf - inf).  The scans must pick what Python loops pick:
# the remainder bound's max keeps the first NaN it starts from and skips the
# later ones, as the parent's loop did, and the root search never takes a
# NaN as the least |g|, so a node within tolerance after a NaN first node is
# found, by the mean value as by the Taylor witness.


def _reference_crossings(g, xs, vals, tol):
    """Bisected sign changes whose |g| is no larger than at either cell end."""
    for a, b, ga, gb in zip(xs, xs[1:], vals, vals[1:]):
        if ga * gb < 0.0 and abs(ga) > tol and abs(gb) > tol:
            root = calculus._bisect(g, a, b, ga, tol)[0]
            if abs(g(root)) <= min(abs(ga), abs(gb)):
                yield root


def _reference_first_root(g, lo, hi, tol, levels=(32, 1024)):
    """calculus._first_root as Python loops over the scaled index formula:
    the inner nodes of each grid in levels in turn, the next one scanned
    only when the last shows no point; (root,) or None."""
    for n in levels:
        ts = _parent_grid(lo, hi, n)[1:-1]
        vals = [g(t) for t in ts]
        mags = [abs(v) for v in vals]
        near = [i for i in range(len(ts)) if mags[i] <= tol]  # never a NaN
        if near:
            return (ts[min(near, key=mags.__getitem__)],)
        root = next(_reference_crossings(g, ts, vals, tol), None)
        if root is not None:
            return (root,)
    return None


def _reference_mean_value_point(f, sa, sb, levels=(32, 1024)):
    """mean_value_point at float endpoints by the reference search;
    levels=(1024,) is the one-level search the two levels replaced."""
    phi, lam = f.real_fn(0), f.real_fn(1)
    slope = (phi(sb) - phi(sa)) / (sb - sa)
    tol = 1e-13 * max(1.0, abs(slope))
    return _reference_first_root(lambda t: lam(t) - slope, sa, sb, tol, levels)


def _is_root(f, sa, sb, c):
    """Whether c is a mean-value point of f on [sa, sb], to 1e-9 relative."""
    phi, lam = f.real_fn(0), f.real_fn(1)
    slope = (phi(sb) - phi(sa)) / (sb - sa)
    return sa < c < sb and abs(lam(c) - slope) <= 1e-9 * max(1.0, abs(slope))


# x^2*1e308 - x^2*1e308 is 0 for |x| <= 1.34, and its derivative is NaN
# beyond |x| = 0.8985; for x^4 the third derivative is NaN beyond 0.0749
_NAN_TAYLOR = [
    ("x^4 + (x^4*1e308 - x^4*1e308)", -0.1, 0.1, 2),  # NaN first, theta at a node
    ("x^4 + (x^4*1e308 - x^4*1e308)", -0.05, 0.1, 2),  # NaN last
    ("sin(x) + (x^2*1e308 - x^2*1e308)", -1.0, 0.5, 0),  # NaN first, theta by bisection
    ("x^2 + (x^2*1e308 - x^2*1e308)", -1.0, 0.5, 0),
]
# the theta the parent's one-level witness search gave in each case
_NAN_TAYLOR_THETAS = dict(zip(_NAN_TAYLOR, [0.25, 0.25, 0.33755046163946645, 0.5]))
_NAN_MEAN_VALUE = [
    ("x^2 + (x^2*1e308 - x^2*1e308)", -1.0, 0.5),  # NaN first: the exact node -0.25 is found
    ("x^2 + (x^2*1e308 - x^2*1e308)", -0.5, 1.0),  # NaN last: the exact node is found
    ("sin(x) + (x^2*1e308 - x^2*1e308)", -1.0, 0.5),
    ("sin(x) + (x^2*1e308 - x^2*1e308)", -0.5, 1.0),
]


def _some_nan(fn, lo, hi):
    got = [math.isnan(fn(t)) for t in _parent_grid(lo, hi, 1024)]
    return any(got) and not all(got)


@pytest.mark.parametrize("text, center, x, order", _NAN_TAYLOR)
def test_taylor_keeps_the_parent_answer_on_nan_samples(text, center, x, order):
    f = NaturalExtension(parse(text), -math.inf, math.inf)
    assert _some_nan(f.real_fn(order + 1), center, x)
    want = _taylor_outcome(lambda: _parent_taylor(f, center, order, x))
    assert _taylor_outcome(lambda: taylor_expand(f, center, order, make(x))) == want
    assert want[2] == repr(_NAN_TAYLOR_THETAS[text, center, x, order])


@pytest.mark.parametrize("text, a, b", _NAN_MEAN_VALUE)
def test_mean_value_keeps_the_parent_answer_on_nan_samples(text, a, b):
    # the answer of the two-level reference; the sin(x) case on [-0.5, 1.0]
    # meets its root at +0.4937 on the coarse grid, where the one-level
    # search bisected onto the root at -0.4937 first.  Each case has a point:
    # the first once raised, when a NaN first sample hid the exact node
    f = NaturalExtension(parse(text), -math.inf, math.inf)
    assert _some_nan(f.real_fn(1), a, b)
    want = _reference_mean_value_point(f, a, b)
    got = (mean_value_point(f, make(a), make(b)),)
    assert repr(got) == repr(want)
    assert _is_root(f, a, b, got[0])


# -- the two-level mean value search ------------------------------------------------


def test_mean_value_points_of_the_benchmark_ops_are_roots(bench_gen, higher_order_input):
    # every point either level of the search returns must solve f'(c) = slope
    functions, domain = higher_order_input["spec"]["functions"], bench_gen.DOMAIN
    ops = [op for op in higher_order_input["ops"] if op["kind"] == "mean_value"]
    assert ops
    for op in ops:
        f = NaturalExtension.on_interval(parse(functions[op["f"]]), -domain, domain)
        a, b = (core.from_dict(json.loads(op[end])) for end in "ab")
        c = mean_value_point(f, a, b)
        assert _is_root(f, a.shadow, b.shadow, c), (op, c)


def test_coarse_mean_value_nodes_are_inner_nodes_bit_for_bit():
    step = calculus._ROOT_CELLS // calculus._COARSE_CELLS
    assert len(calculus._COARSE) == 31 and len(calculus._INNER) == 1023
    rng = random.Random(25)
    for _ in range(300):
        width = 10.0 ** rng.uniform(-300.0, 300.0)
        lo = rng.uniform(-1e3, 1e3) * width
        coarse = calculus._Nodes(lo, width, calculus._COARSE)
        inner = calculus._Nodes(lo, width, calculus._INNER)
        for i in range(31):
            assert coarse[i].hex() == inner[step * (i + 1) - 1].hex(), (lo, width, i)


def test_theta_nodes_are_remainder_bound_nodes_bit_for_bit():
    # the witness reads theta node i / 32 from bound node 64i and i / 1024
    # from node 2i, so center + theta * h must be the float the table holds
    table = calculus._unit(calculus._BOUND_CELLS)
    rng = random.Random(30)
    for _ in range(300):
        center = rng.uniform(-1e3, 1e3) * 10.0 ** rng.uniform(-30.0, 30.0)
        h = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
        bound = calculus._Nodes(center, h, table)
        coarse = calculus._Nodes(center, h, calculus._COARSE)
        inner = calculus._Nodes(center, h, calculus._INNER)
        for i in range(1, 32):
            assert bound[64 * i].hex() == coarse[i - 1].hex(), (center, h, i)
        for i in range(1, 1024):
            assert bound[2 * i].hex() == inner[i - 1].hex(), (center, h, i)


def test_mean_value_samples_31_nodes_when_they_show_the_crossing(monkeypatch):
    cube = NaturalExtension.on_interval(pow_int(X, 3))
    calls, grids = _count_samples(cube, 1)
    bisections = _count_bisections(monkeypatch)
    gamma = mean_value_point(cube, make(0), make(3))
    assert gamma == pytest.approx(math.sqrt(3), abs=1e-10)
    # the coarse grid, then one bisection and the check of its point
    assert grids == [31] and len(bisections) == 1
    assert 31 < len(calls) <= 31 + 64 + 1


def test_a_bisected_crossing_is_checked_by_the_value_the_bisection_found():
    # the coarse grid, then one bisection whose last value is its point's
    cube = NaturalExtension.on_interval(pow_int(X, 3))
    calls, grids = _count_samples(cube, 1)
    gamma = mean_value_point(cube, make(0), make(3))
    assert gamma == 1.7320508075689531 and grids == [31]
    points = calls[31:]
    assert len(points) == len(set(points)) == 38 and points[-1] == gamma


def test_each_derivative_order_is_compiled_once_per_extension(monkeypatch):
    built = []
    build = expr._Emit.build

    def counting(self, e, **options):
        built.append(e)
        return build(self, e, **options)

    monkeypatch.setattr(expr._Emit, "build", counting)
    f = NaturalExtension.on_interval(parse("exp(x) + 0.5 * x^3"), -2.0, 2.0)
    for _ in range(2):
        taylor_expand(f, 0.3, 3, make(0.8))
        mean_value_point(f, make(-1.0), make(1.5))
        image_set(f, monad(RealSet.closed(-1.0, 1.5)))
        inverse_extension(f).eval_at(make(2.0, {"h": 1.0}))
        f.eval_at(make(0.5, {"h": 1.0}))
    trees = f.deriv_exprs(4)
    orders = [next(k for k, t in enumerate(trees) if t is e) for e in built]
    assert sorted(orders) == [0, 1, 2, 4], orders


def test_mean_value_scans_the_fine_grid_for_a_crossing_inside_one_coarse_cell(monkeypatch):
    # f' - slope = 1 - L'(x) for a steep logistic L centred on 0.328125,
    # the middle of the coarse cell [10/32, 11/32]: it is near 1 at every
    # coarse node and below 0 only within 0.007 of the centre
    f = NaturalExtension(parse("x - 1/(1 + exp(-(x - 0.328125)*1000))"), -math.inf, math.inf)
    calls, grids = _count_samples(f, 1)
    bisections = _count_bisections(monkeypatch)
    gamma = mean_value_point(f, make(0.0), make(1.0))
    assert 10 / 32 < gamma < 0.328125 and _is_root(f, 0.0, 1.0, gamma)
    assert grids == [31, 1023] and len(bisections) == 1
    assert 31 + 1023 < len(calls) <= 31 + 1023 + 64 + 1


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(-1.8, 0.8), st.floats(0.2, 1.0))
def test_the_two_level_search_finds_a_root_wherever_one_level_does(seed, sa, width):
    sb = sa + width
    try:
        f = NaturalExtension.on_interval(random_tree(random.Random(seed), 3, [], X), -2.0, 2.0)
        want = _reference_mean_value_point(f, sa, sb, levels=(1024,))
    except MonadicaError:  # no valid function, or no sample on the segment
        return
    if want is not None and _is_root(f, sa, sb, want[0]):
        assert _is_root(f, sa, sb, mean_value_point(f, make(sa), make(sb)))


def _parent_max_abs_over(fn, xs, vals):
    """The parent's _max_abs_on_segment, on given samples."""
    mags = [abs(v) for v in vals]
    best = max(range(len(xs)), key=mags.__getitem__)
    a = xs[max(0, best - 1)]
    b = xs[min(len(xs) - 1, best + 1)]
    for _ in range(60):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if abs(fn(m1)) < abs(fn(m2)):
            a = m1
        else:
            b = m2
    return max(mags[best], abs(fn((a + b) / 2.0)))


def test_the_remainder_argmax_is_the_parents_on_nan_ties_and_signed_zeros():
    # fn exceeds every finite sample, so the result shows where the
    # refinement started, i.e. which node was taken as the argmax
    def fn(t):
        return 4.0 + t

    rng = random.Random(24)
    pool = (math.nan, -math.nan, 0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf)
    xs = _parent_grid(0.0, 1.0, 16)
    for _ in range(3000):
        vals = [rng.choice(pool) if rng.random() < 0.7 else rng.uniform(-3.0, 3.0) for _ in xs]
        want = _parent_max_abs_over(fn, xs, vals)
        assert repr(calculus._max_abs_on_segment(fn, xs, vals)) == repr(want), vals


def test_an_inverse_samples_its_grid_forms_as_its_kernels_with_one_inversion_each(monkeypatch):
    g = inverse_extension(NaturalExtension.on_interval(parse("exp(x) + 0.5 * x^3"), -2.0, 2.0))
    nodes = calculus._Nodes(g.lo, g.hi - g.lo, calculus._unit(64, cells=True))
    want = [[repr(g.real_fn(k)(nodes[i])) for i in range(64)] for k in (0, 1)]
    calls = _count_bisections(monkeypatch)
    for k in (0, 1):
        calls.clear()
        assert list(map(repr, g._sample(k, nodes))) == want[k]
        assert len(calls) == 64


def _parent_midpoints(lo, hi, n):
    """The midpoints lo + (hi - lo) * (i + 0.5) / n of n equal cells on
    [lo, hi], as the parent's validity probes and ODE samples took them."""
    w = hi - lo
    return [lo + w * (i + 0.5) / n for i in range(n)]


@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_cell_tables_give_the_cell_midpoints_of_the_grid(n):
    # (i + 0.5) / n is exact for n a power of two, so lo + w * ((i + 0.5) / n)
    # is the midpoint the cells grid gives, outside subnormal steps and
    # overflowing w * (i + 0.5)
    rng = random.Random(n)
    for _ in range(200):
        lo, hi = sorted(rng.uniform(-1e6, 1e6) for _ in "ab")
        nodes = calculus._Nodes(lo, hi - lo, calculus._unit(n, cells=True))
        assert [nodes[i] for i in range(n)] == _parent_midpoints(lo, hi, n)
