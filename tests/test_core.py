import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadica import calculus, core, seq, sets
from monadica.calculus import MonadRule, NaturalExtension, PiecewiseExtension
from monadica.core import Ordering, make
from monadica.errors import DomainError, MonadicaError, NonFiniteInput, NotInvertible
from monadica.expr import Exp, Neg, Var, differentiate
from monadica.sets import GeneralizedSet, RealSet
from monadica.verify import value_close


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestConstruction:
    def test_zero_element(self):
        assert make(0, {}) == core.ZERO

    def test_decomposition_is_stored(self):
        x = make(2, {"e:1": 1})
        assert core.sigma(x) == 2.0
        assert x.dpart == {"e:1": 1.0}

    def test_zero_coefficients_pruned(self):
        assert make(3, {"e:1": 0.0}) == make(3)
        assert make(3, {"e:1": 0.0}).is_real

    def test_negative_zero_is_normalized(self):
        assert make(-0.0).shadow == 0.0
        assert make(1, {"e:1": -0.0}) == make(1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            make(bad)
        with pytest.raises(NonFiniteInput):
            make(0, {"e:1": bad})

    def test_real_iff_empty_dpart(self):
        assert make(2).is_real
        assert not make(2, {"e:1": 1}).is_real

    def test_infinitesimal_iff_zero_shadow(self):
        assert make(0, {"e:1": 1}).is_infinitesimal
        assert not make(1e-300, {"e:1": 1}).is_infinitesimal

    def test_values_are_hashable(self):
        assert len({make(1, {"e:1": 2}), make(1, {"e:1": 2}), make(1)}) == 2


class TestArithmetic:
    def test_addition_merges_terms(self):
        got = core.add(make(2, {"e:1": 1}), make(3, {"e:2": 1}))
        assert got == make(5, {"e:1": 1, "e:2": 1})

    def test_additive_identity_and_inverse(self):
        x = make(1.5, {"e:1": 2})
        assert core.add(x, core.ZERO) == x
        assert core.add(make(1, {"e:1": 1}), make(-1, {"e:1": -1})) == core.ZERO

    def test_product_keeps_first_order_terms_only(self):
        got = core.mul(make(2, {"e:1": 1}), make(3, {"e:2": 1}))
        assert got == make(6, {"e:1": 3, "e:2": 2})

    def test_product_of_infinitesimals_is_null(self):
        e1 = make(0, {"e:1": 1})
        e2 = make(0, {"e:2": 1})
        assert core.mul(e1, e1) == core.ZERO
        assert core.mul(e1, e2) == core.ZERO

    def test_multiplicative_identity(self):
        x = make(-4, {"h": 2.5})
        assert core.mul(x, core.ONE) == x

    def test_inverse_of_two_plus_impulse(self):
        assert core.inv(make(2, {"e:1": 1})) == make(0.5, {"e:1": -0.25})

    def test_inverse_round_trip_is_the_identity(self):
        x = make(2, {"e:1": 1})
        assert core.mul(x, core.inv(x)) == core.ONE

    def test_infinitesimals_are_not_invertible(self):
        with pytest.raises(NotInvertible):
            core.inv(make(0, {"e:1": 1}))
        with pytest.raises(NotInvertible):
            core.div(core.ONE, make(0, {"e:2": 3}))

    def test_inverse_of_one(self):
        assert core.inv(core.ONE) == core.ONE

    def test_square_via_repeated_product(self):
        x = make(2, {"e:1": 1})
        assert core.pow_nat(x, 2) == core.mul(x, x) == make(4, {"e:1": 4})

    def test_infinitesimals_are_nilpotent(self):
        assert core.pow_nat(make(0, {"e:1": 1}), 2) == core.ZERO

    def test_first_power_is_identity(self):
        x = make(-2, {"g:0.5": 1})
        assert core.pow_nat(x, 1) == x
        assert core.pow_nat(x, 0) == core.ONE

    def test_negative_exponents_rejected(self):
        with pytest.raises(DomainError):
            core.pow_nat(make(2), -1)
        with pytest.raises(DomainError):
            core.root(make(2), 1)

    def test_bool_exponents_rejected(self):
        with pytest.raises(DomainError, match="^exponent must be an integer >= 0, not True$"):
            core.pow_nat(make(2), True)
        with pytest.raises(TypeError):
            make(2) ** True

    def test_square_root(self):
        assert core.root(make(4, {"e:1": 1}), 2) == make(2, {"e:1": 0.25})

    def test_cube_root(self):
        got = core.root(make(1, {"e:1": 1}), 3)
        assert got.shadow == 1.0
        assert got.coefficient("e:1") == pytest.approx(1 / 3, rel=1e-15)

    def test_root_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            core.root(make(-1, {"e:1": 1}), 2)
        with pytest.raises(DomainError):
            core.root(make(0, {"e:1": 1}), 2)

    def test_root_inverts_power(self):
        x = make(7.3, {"e:2": -0.5, "h": 1.25})
        for m in (2, 3, 5):
            back = core.pow_nat(core.root(x, m), m)
            assert value_close(back, x, 1e-12)

    def test_operator_sugar(self):
        x = make(2, {"e:1": 1})
        assert x + 1 == make(3, {"e:1": 1})
        assert 1 - x == make(-1, {"e:1": -1})
        assert 2 * x == make(4, {"e:1": 2})
        assert x / 2 == make(1, {"e:1": 0.5})
        assert x**2 == make(4, {"e:1": 4})
        assert -x == make(-2, {"e:1": -1})


class TestDecomposition:
    def test_shadow_and_differential(self):
        x = make(2, {"e:1": 1})
        assert core.sigma(x) == 2.0
        assert core.differential(x) == make(0, {"e:1": 1})

    def test_reals_have_zero_differential(self):
        assert core.differential(make(7.5)) == core.ZERO

    def test_differential_is_idempotent(self):
        x = make(2, {"e:1": 1, "h": -3})
        assert core.differential(core.differential(x)) == core.differential(x)

    def test_recomposition_is_exact(self):
        x = make(-1.25, {"e:3": 0.7, "g:0.5": -2})
        assert make(core.sigma(x), core.differential(x).dpart) == x

    def test_quotient_representative(self):
        assert core.sigma(make(2, {"e:1": 1})) == 2.0
        assert core.sigma(make(0, {"e:1": 1})) == 0.0
        prod = core.mul(make(2, {"e:1": 1}), make(3, {"e:2": 1}))
        assert core.sigma(prod) == 6.0


class TestOrder:
    def test_three_way_compare(self):
        assert core.cmp3(make(1, {"e:1": 1}), make(2, {"e:2": 1})) == Ordering.LESS
        assert core.cmp3(make(0, {"e:1": 1}), make(0, {"e:2": 1})) == Ordering.INDISCERNIBLE
        assert core.cmp3(make(3), make(2)) == Ordering.GREATER

    def test_infinitesimals_not_strictly_comparable(self):
        e1, e2 = make(0, {"e:1": 1}), make(0, {"e:2": 1})
        assert not core.lt(e1, e2) and not core.lt(e2, e1)
        assert core.lesssim(e1, 0) and core.lesssim(0, e1)

    def test_infinitesimal_between_positives_and_negatives(self):
        eps = make(0, {"h": 5})
        assert core.lt(eps, 1e-9) and core.lt(-1e-9, eps)

    def test_archimedean_witness(self):
        x = make(0.5, {"e:1": 1})
        m = core.archimedean_witness(x, make(10))
        assert m == 21
        assert core.lt(make(10), core.mul(m, x))
        assert not core.lt(make(10), core.mul(m - 1, x))
        assert core.archimedean_witness(core.ONE, core.ZERO) == 1

    def test_archimedean_witness_beyond_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="float range"):
            core.archimedean_witness(make(1e-300), make(1e300))

    def test_archimedean_needs_positive_base(self):
        with pytest.raises(DomainError):
            core.archimedean_witness(make(0, {"e:1": 1}), core.ONE)

    def test_density_real_between(self):
        assert core.density_real_between(make(1, {"e:1": 1}), make(2)) == 1.5
        mid = core.density_real_between(make(0), make(1))
        assert 0 < mid < 1

    def test_density_nonreal_between(self):
        z = core.density_nonreal_between(0, 1)
        assert not z.is_real
        assert core.lt(0, z) and core.lt(z, 1)
        assert z == make(0.5, {"e:1": 1})  # midpoint plus the first impulse

    def test_density_rejects_indiscernible(self):
        with pytest.raises(DomainError):
            core.density_real_between(make(0, {"e:1": 1}), make(0, {"e:2": 1}))
        with pytest.raises(DomainError):
            core.density_nonreal_between(1, 1)


class TestWireFormat:
    def test_round_trip_is_bit_exact(self):
        x = make(0.1, {"e:1": 1 / 3, "g:0.5": -2.5000000000000004e-12})
        back = core.from_json(core.to_json(x))
        assert bits(back.shadow) == bits(x.shadow)
        for gid in x.dpart:
            assert bits(back.dpart[gid]) == bits(x.dpart[gid])

    def test_encoding_shape(self):
        doc = json.loads(core.to_json(make(2, {"e:1": 1})))
        assert doc == {"shadow": 2.0, "d": {"e:1": 1.0}}

    def test_malformed_input_rejected(self):
        with pytest.raises(DomainError):
            core.from_json("[1, 2]")
        with pytest.raises(DomainError):
            core.from_json('{"d": {}}')

    @pytest.mark.parametrize(
        "bad",
        [
            '{"shadow": "abc", "d": {}}',
            '{"shadow": "1.5", "d": {}}',
            '{"shadow": true, "d": {}}',
            '{"shadow": null, "d": {}}',
            '{"shadow": 1, "d": {"h": "2"}}',
            '{"shadow": 1, "d": {"h": false}}',
        ],
    )
    def test_strings_booleans_and_null_are_not_numbers(self, bad):
        with pytest.raises(DomainError, match="numbers expected"):
            core.from_json(bad)


_dyadic = st.integers(-2048, 2048).map(lambda k: k / 256.0)
_values = st.builds(
    make,
    _dyadic,
    st.dictionaries(st.sampled_from(["e:1", "e:2", "e:3", "h"]), _dyadic, max_size=3),
)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(_values, _values, _values)
def test_ring_axioms_hold_exactly_on_dyadic_values(x, y, z):
    assert core.add(x, y) == core.add(y, x)
    assert core.mul(x, y) == core.mul(y, x)
    assert core.add(core.add(x, y), z) == core.add(x, core.add(y, z))
    assert core.mul(core.mul(x, y), z) == core.mul(x, core.mul(y, z))
    assert core.mul(x, core.add(y, z)) == core.add(core.mul(x, y), core.mul(x, z))
    assert core.add(x, core.ZERO) == x
    assert core.mul(x, core.ONE) == x


@settings(deadline=None, max_examples=80, derandomize=True)
@given(_values, _values, _values)
def test_order_is_a_trichotomy_compatible_with_the_ring(x, y, z):
    assert sum((core.lt(x, y), core.indiscernible(x, y), core.lt(y, x))) == 1
    if core.lt(x, y):
        assert core.lt(core.add(x, z), core.add(y, z))
        if core.sigma(z) > 0:
            assert core.lt(core.mul(x, z), core.mul(y, z))


@settings(deadline=None, max_examples=80, derandomize=True)
@given(_values, _values)
def test_shadow_is_an_idempotent_ring_homomorphism(x, y):
    assert core.sigma(core.add(x, y)) == core.sigma(x) + core.sigma(y)
    assert core.sigma(core.mul(x, y)) == core.sigma(x) * core.sigma(y)
    assert core.sigma(make(core.sigma(x))) == core.sigma(x)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(_values)
def test_reals_meet_infinitesimals_only_at_zero(x):
    if x.is_real and x.is_infinitesimal:
        assert x == core.ZERO


# -- ring results are built canonical -------------------------------------------------


def _reference_ring(name, x, y=None, m=None):
    """What the public constructor builds from the floats each ring op
    computes."""
    G = core.GeneralizedReal
    if name == "add":
        coeffs = dict(x.dpart)
        for g, c in y.dpart.items():
            coeffs[g] = coeffs.get(g, 0.0) + c
        return G(x.shadow + y.shadow, coeffs)
    if name == "neg":
        return G(-x.shadow, {g: -c for g, c in x.dpart.items()})
    if name == "mul":
        coeffs = {g: x.shadow * c for g, c in y.dpart.items()}
        for g, c in x.dpart.items():
            coeffs[g] = coeffs.get(g, 0.0) + y.shadow * c
        return G(x.shadow * y.shadow, coeffs)
    if name == "inv":
        s = x.shadow
        if s == 0.0:
            raise NotInvertible("infinitesimals have no multiplicative inverse")
        return G(1.0 / s, {g: -(c / (s * s)) for g, c in x.dpart.items()})
    if name == "pow_nat":
        if m == 0:
            return core.ONE
        try:
            p, factor = x.shadow**m, m * x.shadow ** (m - 1)
        except OverflowError:
            raise NonFiniteInput("overflow") from None
        return G(p, {g: factor * c for g, c in x.dpart.items()})
    s = x.shadow
    if s <= 0.0:
        raise DomainError("root requires a positive value (shadow > 0)")
    r = s ** (1.0 / m)
    for _ in range(2):
        r -= (r**m - s) / (m * r ** (m - 1))
    denom = m * r ** (m - 1)
    return G(r, {g: c / denom for g, c in x.dpart.items()})


_GIDS = ["e:1", "e:2", "h", "g:0.5"]
_edgy = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e300, -1e300, 1e-300, 2.0**-60])
_coeff = st.one_of(_edgy, st.floats(-1e6, 1e6))
_edgy_values = st.builds(make, _coeff, st.dictionaries(st.sampled_from(_GIDS), _coeff, max_size=4))


def _both(fn, *args):
    try:
        return fn(*args)
    except MonadicaError as exc:
        return type(exc)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(_edgy_values, _edgy_values, st.integers(0, 5), st.integers(2, 5))
def test_ring_results_equal_what_the_public_constructor_builds(x, y, k, m):
    cases = [
        (core.add, (x, y), ("add", x, y)),
        (core.neg, (x,), ("neg", x)),
        (core.mul, (x, y), ("mul", x, y)),
        (core.pow_nat, (x, k), ("pow_nat", x, None, k)),
        (core.root, (x, m), ("root", x, None, m)),
    ]
    if x.shadow * x.shadow >= 2.2250738585072014e-308 or x.shadow == 0.0:
        cases.append((core.inv, (x,), ("inv", x)))
    for fn, args, ref in cases:
        got, want = _both(fn, *args), _both(_reference_ring, *ref)
        assert got == want and repr(got) == repr(want), (fn.__name__, args)
        if isinstance(got, core.GeneralizedReal):
            assert list(got.dpart) == list(want.dpart)


_magnitude = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
_finite = st.builds(lambda v, negative: -v if negative else v, _magnitude, st.booleans())
_wide_values = st.builds(make, _finite, st.dictionaries(st.sampled_from(_GIDS), _finite, max_size=3))


@settings(deadline=None, max_examples=200, derandomize=True)
@given(_wide_values, _wide_values, st.integers(0, 9), st.integers(2, 9))
def test_ring_ops_on_wide_floats_give_a_finite_value_or_a_typed_error(x, y, k, m):
    ops = [
        lambda: core.add(x, y), lambda: core.sub(x, y), lambda: core.neg(x),
        lambda: core.mul(x, y), lambda: core.inv(x), lambda: core.div(y, x),
        lambda: core.pow_nat(x, k), lambda: x**k, lambda: core.root(x, m),
    ]
    for op in ops:
        try:
            r = op()
        except MonadicaError:
            continue
        assert math.isfinite(r.shadow) and all(map(math.isfinite, r.dpart.values()))


class TestFloatEdges:
    def test_inverse_of_a_tiny_shadow_with_a_differential_part(self):
        # s * s underflows to zero at s = 1e-170; the slope is still finite
        s = 1.4e-154
        got = core.inv(make(s, {"h": 1.0}))
        assert got.shadow == 1.0 / s
        assert got.coefficient("h") == pytest.approx(-1.0 / s / s, rel=1e-15)
        with pytest.raises(NonFiniteInput):
            core.inv(make(1e-200, {"h": 1.0}))
        with pytest.raises(NonFiniteInput):
            core.div(make(1.0), make(1e-200, {"h": 1.0}))

    def test_power_beyond_the_float_range(self):
        with pytest.raises(NonFiniteInput):
            core.pow_nat(make(1e200), 2)
        with pytest.raises(NonFiniteInput):
            make(-1e200, {"h": 1.0}) ** 3

    def test_json_integer_beyond_the_float_range(self):
        with pytest.raises(DomainError, match="beyond the float range"):
            core.from_json('{"shadow": 1' + "0" * 400 + ', "d": {}}')
        with pytest.raises(DomainError, match="beyond the float range"):
            core.from_json('{"shadow": 1, "d": {"h": -1' + "0" * 400 + "}}")
        # too long for int() where Python limits integer string conversion
        with pytest.raises(DomainError, match="invalid JSON|beyond the float range"):
            core.from_json('{"shadow": 1' + "0" * 5000 + ', "d": {}}')



# -- the number gate: every entry point takes ints and floats only -----------------

_X = Var()
_EXP = NaturalExtension.on_interval(Exp(_X))
_VEE = PiecewiseExtension((0.0,), (Neg(_X), _X), (MonadRule(0.0, 1.0),))

GATED = {
    "GeneralizedReal": lambda v: core.GeneralizedReal(v),
    "coefficient": lambda v: make(0.0, {"h": v}),
    "as_generalized": core.as_generalized,
    "density_xi": lambda v: core.density_nonreal_between(v, 2.0),
    "density_eta": lambda v: core.density_nonreal_between(0.0, v),
    "on_interval_lo": lambda v: NaturalExtension.on_interval(_X, v, 1.0),
    "on_interval_hi": lambda v: NaturalExtension.on_interval(_X, -1.0, v),
    "taylor_center": lambda v: calculus.taylor_expand(_EXP, v, 2, make(0.5)),
    "breakpoint": lambda v: PiecewiseExtension((v,), (_X, _X), (MonadRule(0.0, 1.0),)),
    "limit_probe": _VEE.limit_probe,
    "piecewise_deriv_at": _VEE.deriv_at,
    "geometric": seq.geometric,
    "set_point": RealSet.point,
    "interval_lo": lambda v: RealSet.interval(v, 1.0),
    "interval_hi": lambda v: RealSet.interval(0.0, v),
    "contains": RealSet.closed(0.0, 1.0).contains,
    "extras": lambda v: GeneralizedSet(RealSet(), (v,)),
    "decoded_endpoint": lambda v: sets.set_from_dict({"intervals": [{"lo": v, "hi": 1.0}]}),
    "decoded_point": lambda v: sets.set_from_dict({"points": [v]}),
    "decoded_extra": lambda v: sets.set_from_dict({"extras": [v]}),
}


@pytest.mark.parametrize("bad", ["abc", "1.5", True, None, 10**400],
                         ids=["text", "numeric_text", "bool", "none", "huge_int"])
@pytest.mark.parametrize("entry", sorted(GATED))
def test_gated_entry_points_take_only_ints_and_floats(entry, bad):
    with pytest.raises(DomainError, match="must be a number, not|lies beyond the float range"):
        GATED[entry](bad)


# -- orders, degrees, indices and counts are ints, never bools -------------------

ORDERS = {
    "eval_higher": (lambda m: _EXP.eval_higher(m, make(0.5)),
                    "extension order must be an integer >= 1"),
    "deriv_higher": (lambda m: _EXP.deriv_higher(m, make(0.5)),
                     "derivative order must be an integer >= 1"),
    "taylor_expand": (lambda m: calculus.taylor_expand(_EXP, 0.3, m, make(0.5)),
                      "expansion order must be an integer from 0 to 169"),
    "root": (lambda m: core.root(make(4.0), m), "root degree must be an integer >= 2"),
    "differentiate": (lambda m: differentiate(Exp(_X), m),
                      "derivative order must be an integer >= 0"),
    "impulse": (seq.impulse, "impulse index must be an integer >= 1"),
    "term": (lambda m: seq.term(make(0.5, {"e:1": 1.0}), m),
             "sequence index must be an integer >= 1"),
    "convergence_witness": (lambda m: seq.convergence_witness(make(0.5), 0.1, m),
                            "nmax must be an integer >= 1"),
    "oracle_pow_nat": (lambda m: seq.oracle_pow_nat(make(0.5), m, 4),
                       "exponent must be an integer >= 1"),
    "prefix": (lambda n: seq.prefix(make(0.5), n),
               "number of terms must be an integer from 0 to 100000"),
    "oracle_binary": (lambda n: seq.oracle_binary("add", make(0.5), make(1.0), n),
                      "number of terms must be an integer from 1 to 100000"),
    "oracle_inv": (lambda n: seq.oracle_inv(make(0.5), n),
                   "number of terms must be an integer from 0 to 100000"),
}


@pytest.mark.parametrize("entry", sorted(ORDERS))
def test_orders_refuse_a_bool(entry):
    call, message = ORDERS[entry]
    for bad in (True, 2.5, "3"):
        with pytest.raises(DomainError) as info:
            call(bad)
        assert str(info.value) == f"{message}, not {bad!r}"
