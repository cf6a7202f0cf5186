import math
import random
import struct
from bisect import bisect_right

import pytest

from monadica.calculus import (
    MonadRule,
    NaturalExtension,
    PiecewiseExtension,
    ode_verify,
)
from monadica.core import make
from monadica.errors import (
    DomainError,
    MonadicaError,
    NonFiniteInput,
    ProvisoViolated,
    RegionMismatch,
)
from monadica.expr import Const, Neg, Var, gen_eval, parse, pow_int
from test_compile import outcome, random_tree

X = Var()


def vee_solution():
    # matches |t| on the reals; flat on the central monad apart from its slope
    return PiecewiseExtension((0.0,), (Neg(X), X), (MonadRule(0.0, 1.0),))


def vee_rhs():
    return PiecewiseExtension((0.0,), (Const(-1.0), Const(1.0)), (MonadRule(1.0, 0.0),))


def step_solution():
    return PiecewiseExtension((0.0,), (Const(0.0), Const(1.0)), (MonadRule(1.0, 1.0),))


def step_rhs():
    return PiecewiseExtension((0.0,), (Const(0.0), Const(0.0)), (MonadRule(1.0, 0.0),))


class TestConstruction:
    def test_region_counts_must_match(self):
        with pytest.raises(DomainError):
            PiecewiseExtension((0.0,), (X,), (MonadRule(0.0, 1.0),))
        with pytest.raises(DomainError):
            PiecewiseExtension((0.0,), (X, X), ())

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(DomainError):
            PiecewiseExtension(
                (1.0, 1.0), (X, X, X), (MonadRule(1.0, 0.0), MonadRule(1.0, 0.0))
            )

    def test_a_gap_invalid_on_its_region_is_refused(self):
        # log has no value on t < 0, so neither has its derivative 1/t there
        with pytest.raises(
            DomainError,
            match=r"^function is not valid on \(-inf, 0\.0\): log needs a positive argument",
        ):
            PiecewiseExtension([0], [parse("log(x)"), X], [MonadRule(0, 1)])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: NaturalExtension.on_interval("x"), "a function must be an expression, not 'x'"),
            (lambda: PiecewiseExtension((), ("x",), ()), "a function must be an expression, not 'x'"),
            (
                lambda: PiecewiseExtension((0.0,), (X, X), (None,)),
                "a monad rule must be a MonadRule, not None",
            ),
        ],
        ids=["gap_text", "piecewise_gap_text", "rule_none"],
    )
    def test_a_malformed_gap_or_rule_is_refused(self, build, message):
        with pytest.raises(DomainError) as raised:
            build()
        assert str(raised.value) == message


class TestEvaluation:
    def test_dispatch_between_gaps_and_monads(self):
        p = vee_solution()
        assert p.eval_at(make(-2, {"e:1": 1})) == make(2, {"e:1": -1})
        assert p.eval_at(make(3)) == make(3)
        assert p.eval_at(make(0, {"e:1": 2})) == make(0, {"e:1": 2})

    def test_monad_rule_is_affine_in_the_differential(self):
        p = step_solution()
        assert p.eval_at(make(0, {"h": 3})) == make(1, {"h": 3})
        assert p.eval_at(make(-1)) == make(0)

    def test_an_overflowing_monad_rule_names_the_shadow(self):
        # slope 1e308 times the coefficient 10 of h overflows
        p = PiecewiseExtension((0.0,), (X, X), (MonadRule(0.0, 1e308),))
        with pytest.raises(NonFiniteInput) as info:
            p.eval_at(make(0.0, {"h": 10.0}))
        assert str(info.value) == "the extension is not finite at shadow 0.0"


def linear_scan_region(breakpoints, s):
    """The region lookup as a linear scan for a breakpoint, then a
    bisect_right for the gap: (index, on a breakpoint)."""
    for i, b in enumerate(breakpoints):
        if s == b:
            return i, True
    return bisect_right(breakpoints, s), False


@pytest.mark.parametrize("bps", [(), (0.0,), (-0.0, 1.0), (-1.5, 0.0, 2.0, 7.25)])
def test_one_bisection_finds_the_region_the_linear_scan_finds(bps):
    # gap i is (i + 1) * x, monad i has value 100 + i and slope -i
    p = PiecewiseExtension(
        bps,
        tuple(X * float(i + 1) for i in range(len(bps) + 1)),
        tuple(MonadRule(100.0 + i, -float(i)) for i in range(len(bps))),
    )
    finite = [-0.0, 0.0, -1e300, 1e300]
    for b in bps:
        finite += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf), b - 0.5, b + 0.5]
    finite += [(a + b) / 2.0 for a, b in zip(bps, bps[1:])]
    for s in finite + [math.inf, -math.inf, math.nan]:
        assert p._region(s) == linear_scan_region(bps, s), s
    for s in finite:
        i, on_breakpoint = linear_scan_region(bps, s)
        if on_breakpoint:
            assert p.eval_at(make(s, {"h": 1.0})) == make(100.0 + i, {"h": -float(i)})
            assert p.deriv_at(s) == -float(i)
        else:
            assert p.eval_at(make(s, {"h": 1.0})) == make(s * (i + 1), {"h": float(i + 1)})
            assert p.deriv_at(s) == float(i + 1)
        assert p._value(s) == (100.0 + i if on_breakpoint else s * (i + 1))


class TestDerivativeProviso:
    def test_absolute_value_extension_has_derivative_zero(self):
        p = PiecewiseExtension((0.0,), (Neg(X), X), (MonadRule(0.0, 0.0),))
        assert p.deriv_at(0.0) == 0.0
        probe = p.limit_probe(0.0)
        assert not probe.exists
        assert "classical limit absent" in probe.detail

    def test_declared_slope_matching_the_classical_limit(self):
        square = pow_int(X, 2)
        p = PiecewiseExtension((3.0,), (square, square), (MonadRule(9.0, 6.0),))
        assert p.deriv_at(3.0) == 6.0

    def test_proviso_violation(self):
        square = pow_int(X, 2)
        p = PiecewiseExtension((0.0,), (square, square), (MonadRule(0.0, 1.0),))
        with pytest.raises(ProvisoViolated):
            p.deriv_at(0.0)

    def test_off_breakpoint_derivative_is_classical(self):
        p = vee_solution()
        assert p.deriv_at(-2.0) == -1.0
        assert p.deriv_at(5.0) == 1.0


class TestOdeVerification:
    def test_vee_solves_the_sign_equation(self):
        reports = ode_verify(vee_solution(), vee_rhs())
        assert all(r.passed for r in reports)
        monad_report = [r for r in reports if r.region.startswith("monad")][0]
        assert "classical limit absent" in monad_report.detail

    def test_step_solves_the_pulse_equation(self):
        reports = ode_verify(step_solution(), step_rhs())
        assert all(r.passed for r in reports)

    def test_wrong_solution_fails_on_the_left_gap(self):
        wrong = PiecewiseExtension((0.0,), (X, X), (MonadRule(0.0, 1.0),))
        reports = ode_verify(wrong, vee_rhs())
        assert not reports[0].passed
        assert reports[1].passed

    def test_region_structures_must_match(self):
        other = PiecewiseExtension(
            (1.0,), (Const(-1.0), Const(1.0)), (MonadRule(1.0, 0.0),)
        )
        with pytest.raises(RegionMismatch):
            ode_verify(vee_solution(), other)

    def test_reports_serialize(self):
        reports = ode_verify(vee_solution(), vee_rhs())
        doc = reports[0].to_dict()
        assert set(doc) == {"region", "status", "detail"}
        assert doc["status"] in ("pass", "fail")


def random_two_gap_functions(count):
    """The first ``count`` pairs of seeded random trees that are valid gaps
    on t < 0 and t > 0, with a flat monad rule at 0."""
    found, seed = [], 0
    while len(found) < count:
        rng = random.Random(seed)
        seed += 1
        gaps = (random_tree(rng, 3, [], X), random_tree(rng, 3, [], X))
        try:
            found.append(PiecewiseExtension((0.0,), gaps, (MonadRule(0.0, 0.0),)))
        except DomainError:
            continue
    return found


def tree_walk_deriv_at(e, s):
    """Off a breakpoint, deriv_at as it walked a fresh derivative tree."""
    try:
        return e.deriv().eval_real(s)
    except MonadicaError:
        return None


OFF_BREAKPOINTS = [sign * s for s in (0.1, 0.3, 0.5, 1.0, 2.0, 7.25, 40.0) for sign in (-1, 1)]


def test_gaps_keep_the_bits_of_the_tree_walks():
    for p in random_two_gap_functions(40):
        for s in OFF_BREAKPOINTS:
            e = p.gap_exprs[s > 0]
            assert outcome(p._value, s) == outcome(e.eval_real, s), (str(e), s)
            got, want = p.deriv_at(s), tree_walk_deriv_at(e, s)
            assert (got is None) == (want is None), (str(e), s)
            if want is not None:
                assert struct.pack("<d", got) == struct.pack("<d", want), (str(e), s)


def test_gap_extensions_agree_with_forward_mode():
    # the slope is the compiled symbolic derivative, gen_eval's is forward
    # mode: 2.7e-15 relative was the largest difference on these points
    for p in random_two_gap_functions(40):
        for s in OFF_BREAKPOINTS:
            t = make(s, {"h": 1.0})
            got, want = p.eval_at(t), gen_eval(p.gap_exprs[s > 0], t)
            assert struct.pack("<d", got.shadow) == struct.pack("<d", want.shadow), s
            a, b = got.coefficient("h"), want.coefficient("h")
            assert abs(a - b) <= 1e-12 * abs(b), (str(p.gap_exprs[s > 0]), s, a, b)
