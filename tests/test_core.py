import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadica import core
from monadica.core import Ordering, make
from monadica.errors import DomainError, NonFiniteInput, NotInvertible
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
        assert core.quotient_repr(make(2, {"e:1": 1})) == 2.0
        assert core.quotient_repr(make(0, {"e:1": 1})) == 0.0
        prod = core.mul(make(2, {"e:1": 1}), make(3, {"e:2": 1}))
        assert core.quotient_repr(prod) == 6.0


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
