import copy
import math
import pickle
import random
import re
import sys
import threading

import pytest

from monadica import calculus, core, sets
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

X = Var()
DX = make(0, {"e:1": 1})

exp_f = NaturalExtension.on_interval(Exp(X))
log_f = NaturalExtension.on_interval(Log(X), 0.0, math.inf)
sin_f = NaturalExtension.on_interval(Sin(X))
cos_f = NaturalExtension.on_interval(Cos(X))
square_f = NaturalExtension.on_interval(pow_int(X, 2))


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
        monkeypatch.setattr(calculus, "compile_real", counting("compile", compile_real))
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
        calls = []

        def counting(*args):
            calls.append(args)
            return bisect(*args)

        bisect = calculus._bisect
        monkeypatch.setattr(calculus, "_bisect", counting)
        assert repr(got.eval_at(make(1.0, {"h": 1.0}))) == repr(want)
        assert len(calls) == 1

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
        nodes = calculus._grid(lo, hi, calculus._ZERO_CELLS)
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

        got = calculus._bisect(g, a, b, g(a))
        assert abs(got - root) <= 1e-15
        # halving to float exhaustion would take 80 to 1 000 calls here
        assert len(calls) <= 64

    def test_crossings_bisect_only_the_cells_asked_for(self):
        calls = []

        def g(t):
            calls.append(t)
            return math.cos(t)

        xs = calculus._grid(0.0, 10.0, 10)
        vals = [g(t) for t in xs]
        calls.clear()
        first = next(calculus._crossings(g, xs, vals, 0.0))
        assert first == pytest.approx(math.pi / 2, abs=1e-14)
        assert len(calls) <= 64
        roots = list(calculus._crossings(g, xs, vals, 0.0))
        assert roots == pytest.approx([math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2])


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
        want = None if inside(p) else f"shadow {float(p)!r} lies outside the domain"
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
