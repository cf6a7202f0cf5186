import json
import math
import random
import re
import time
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadica import sets
from monadica.core import make
from monadica.errors import (
    DomainError,
    EmptySetError,
    LengthUndefined,
    NonFiniteInput,
    NotMonadic,
    NotRepresentable,
    UnboundedError,
)
from monadica.sets import (
    GeneralizedSet,
    Interval,
    RealSet,
    hat_interval,
    member,
    monad,
    shadow,
)

INF = math.inf


class TestNormalization:
    def test_touching_closed_intervals_merge(self):
        got = RealSet((Interval(0, 1, True, True), Interval(1, 2, True, True)))
        assert got == RealSet.closed(0, 2)

    def test_open_touching_intervals_do_not_merge(self):
        got = RealSet((Interval(0, 1, True, False), Interval(1, 2, False, True)))
        assert len(got.intervals) == 2

    def test_half_closed_touch_merges(self):
        got = RealSet((Interval(0, 1, True, False), Interval(1, 2, True, True)))
        assert got == RealSet.closed(0, 2)

    def test_point_closes_an_open_endpoint(self):
        got = RealSet((Interval(0, 1, False, False),), (1.0,))
        assert got == RealSet.interval(0, 1, False, True)

    def test_point_bridges_two_open_intervals(self):
        got = RealSet((Interval(0, 1, False, False), Interval(1, 2, False, False)), (1.0,))
        assert got == RealSet.open(0, 2)

    def test_interior_points_are_absorbed(self):
        assert RealSet((Interval(0, 2, True, True),), (1.0,)) == RealSet.closed(0, 2)

    def test_degenerate_intervals(self):
        assert RealSet((Interval(3, 3, True, True),)) == RealSet.point(3)
        assert RealSet((Interval(3, 3, False, True),)).is_empty

    def test_bad_endpoints_rejected(self):
        with pytest.raises(DomainError):
            RealSet((Interval(2, 1, True, True),))
        with pytest.raises(DomainError):
            RealSet((Interval(math.nan, 1, True, True),))
        with pytest.raises(DomainError):
            RealSet((), (INF,))

    def test_infinite_endpoints_forced_open(self):
        got = RealSet((Interval(-INF, 0, True, True),))
        assert got.intervals[0].lo_closed is False

    def test_points_bridge_a_long_chain_of_open_intervals(self):
        chain = tuple(Interval(k, k + 1, False, False) for k in range(50))
        bridges = tuple(range(1, 50))
        assert RealSet(chain, bridges) == RealSet.open(0, 50)
        assert RealSet(chain[::-1], bridges[::-1]) == RealSet.open(0, 50)


class TestBooleanAlgebra:
    def test_union_intersect_difference(self):
        a, b = RealSet.closed(0, 2), RealSet.closed(1, 3)
        assert a.union(b) == RealSet.closed(0, 3)
        assert a.intersect(b) == RealSet.closed(1, 2)
        assert a.difference(b) == RealSet.interval(0, 1, True, False)

    def test_complement_round_trip(self):
        s = RealSet((Interval(0, 1, True, False),), (2.0,))
        assert s.complement().complement() == s

    def test_complement_of_a_point(self):
        got = RealSet.point(0).complement()
        assert got == RealSet(
            (Interval(-INF, 0, False, False), Interval(0, INF, False, False))
        )

    def test_adjacent_closed_intervals_meet_in_a_point(self):
        assert RealSet.closed(0, 1).intersect(RealSet.closed(1, 2)) == RealSet.point(1)


class TestTopology:
    def test_interior_closure_boundary(self):
        s = RealSet((Interval(0, 1, True, False),), (2.0,))
        assert s.interior() == RealSet.open(0, 1)
        assert s.closure() == RealSet((Interval(0, 1, True, True),), (2.0,))
        assert s.boundary() == RealSet((), (0.0, 1.0, 2.0))
        assert s.exterior() == RealSet(
            (Interval(-INF, 0, False, False), Interval(1, 2, False, False),
             Interval(2, INF, False, False))
        )

    def test_predicates(self):
        assert RealSet.open(0, 1).is_open
        assert RealSet.closed(0, 1).is_closed and RealSet.closed(0, 1).is_compact
        assert not RealSet.open(0, 1).is_compact
        assert not RealSet.interval(0, INF, True, False).is_compact
        assert RealSet.closed(0, 1).is_connected
        assert not RealSet.closed(0, 1).union(RealSet.closed(2, 3)).is_connected
        assert RealSet.empty().is_connected


class TestMonadsAndShadows:
    def test_monad_of_empty_set(self):
        assert monad(RealSet.empty()).is_empty

    def test_shadow_of_monad_recovers_the_base(self):
        s = RealSet.closed(0, 1)
        assert shadow(monad(s)) == s

    def test_monad_of_shadow_recovers_monadic_sets(self):
        g = monad(RealSet.open(0, 2))
        assert monad(shadow(g)) == g

    def test_membership_uses_the_shadow(self):
        assert member(make(0.5, {"e:1": 1}), monad(RealSet.closed(0, 1)))
        assert member(make(0, {"e:1": 1}), monad(RealSet.point(0)))
        assert not member(make(1.5, {"e:1": 1}), monad(RealSet.closed(0, 1)))

    def test_extras_admit_only_the_bare_real(self):
        g = GeneralizedSet(RealSet.closed(0, 1), (2.0,))
        assert member(make(1, {"e:1": 1}), g)
        assert member(make(2), g)
        assert not member(make(2, {"e:1": 1}), g)

    def test_extras_inside_the_base_are_redundant(self):
        g = GeneralizedSet(RealSet.closed(0, 1), (0.5,))
        assert g.extras == ()

    def test_union_and_intersection_of_monads(self):
        a, b = RealSet.closed(0, 1), RealSet.closed(2, 3)
        assert sets.union(monad(a), monad(b)) == monad(a.union(b))
        mid = sets.intersect(monad(RealSet.closed(0, 2)), monad(RealSet.closed(2, 4)))
        assert mid == monad(RealSet.point(2))

    def test_difference_of_monads(self):
        got = sets.difference(monad(RealSet.closed(0, 2)), monad(RealSet.closed(1, 3)))
        assert got == monad(RealSet.interval(0, 1, True, False))

    def test_difference_cannot_puncture_a_monad(self):
        g1 = monad(RealSet.closed(0, 2))
        g2 = GeneralizedSet(RealSet.empty(), (1.0,))
        with pytest.raises(NotRepresentable):
            sets.difference(g1, g2)

    def test_intersection_sees_extras(self):
        g1 = GeneralizedSet(RealSet.closed(0, 1), (5.0,))
        g2 = GeneralizedSet(RealSet.closed(4, 6), ())
        got = sets.intersect(g1, g2)
        assert got == GeneralizedSet(RealSet.empty(), (5.0,))


class TestHatIntervals:
    def test_kinds_are_monads_of_real_intervals(self):
        assert hat_interval("closed", 0, 1) == monad(RealSet.closed(0, 1))
        assert hat_interval("open", 0, 1) == monad(RealSet.open(0, 1))
        assert hat_interval("half_lo", 0, 1) == monad(RealSet.interval(0, 1, True, False))
        assert hat_interval("half_hi", 0, 1) == monad(RealSet.interval(0, 1, False, True))
        assert hat_interval("ray_ge", 2) == monad(RealSet.interval(2, INF, True, False))
        assert hat_interval("full") == monad(RealSet.reals())

    def test_degenerate_intervals(self):
        assert hat_interval("closed", 3, 3) == monad(RealSet.point(3))
        assert hat_interval("open", 3, 3).is_empty
        assert sets.length(hat_interval("closed", 3, 3)) == 0.0
        assert sets.length(hat_interval("open", 3, 3)) == 0.0

    def test_out_of_order_endpoints_rejected(self):
        with pytest.raises(DomainError):
            hat_interval("closed", 2, 1)

    def test_length(self):
        assert sets.length(hat_interval("half_hi", 1, 4)) == 3.0
        with pytest.raises(LengthUndefined):
            sets.length(hat_interval("ray_ge", 0))
        with pytest.raises(LengthUndefined):
            sets.length(monad(RealSet.closed(0, 1).union(RealSet.closed(2, 3))))
        with pytest.raises(LengthUndefined):
            sets.length(GeneralizedSet(RealSet.open(0, 1), (2.0,)))

    def test_a_length_beyond_the_float_range_is_non_finite(self):
        assert sets.length(hat_interval("closed", -8e307, 8e307)) == 1.6e308
        named = "the length of Interval(lo=-1e+308, hi=1e+308, lo_closed=True, hi_closed=True)"
        with pytest.raises(NonFiniteInput, match=re.escape(named) + " exceeds the float range$"):
            sets.length(hat_interval("closed", -1e308, 1e308))

    def test_adjacent_closed_hats_meet_in_the_shared_monad(self):
        got = sets.intersect(hat_interval("closed", 0, 1), hat_interval("closed", 1, 2))
        assert got == monad(RealSet.point(1))


class TestMonadTopology:
    def test_interior_commutes_with_monad(self):
        assert sets.interior(monad(RealSet.closed(0, 1))) == monad(RealSet.open(0, 1))

    def test_predicates_delegate_to_the_base(self):
        assert sets.is_compact(monad(RealSet.closed(0, 1)))
        assert not sets.is_compact(monad(RealSet.open(0, 1)))
        assert not sets.is_connected(
            monad(RealSet.closed(0, 1).union(RealSet.closed(2, 3)))
        )

    def test_operations_require_monadic_sets(self):
        g = GeneralizedSet(RealSet.closed(0, 1), (2.0,))
        with pytest.raises(NotMonadic):
            sets.interior(g)
        with pytest.raises(NotMonadic):
            sets.is_open(g)


class TestBounds:
    def test_real_supremum_of_an_open_interval(self):
        assert sets.sup_r(monad(RealSet.open(0, 1))) == 1.0
        assert sets.inf_r(monad(RealSet.open(0, 1))) == 0.0

    def test_attained_extrema(self):
        assert sets.max_r(monad(RealSet.closed(0, 1))) == 1.0
        assert sets.max_r(monad(RealSet.open(0, 1))) is None
        assert sets.min_r(monad(RealSet.interval(0, 1, True, False))) == 0.0

    def test_upper_bounds_are_shadow_level(self):
        g = monad(RealSet.open(0, 1))
        assert sets.is_upper_bound(make(1, {"e:1": 1}), g)
        assert sets.is_upper_bound(make(1), g)
        assert not sets.is_upper_bound(make(0.75), g)
        assert sets.is_lower_bound(make(0, {"h": -1}), g)

    def test_empty_and_unbounded_errors(self):
        with pytest.raises(EmptySetError):
            sets.sup_r(monad(RealSet.empty()))
        with pytest.raises(UnboundedError):
            sets.sup_r(hat_interval("ray_ge", 0))
        assert sets.is_upper_bound(make(0), monad(RealSet.empty()))
        assert not sets.is_upper_bound(make(0), hat_interval("ray_ge", 0))

    def test_extras_count_for_bounds(self):
        g = GeneralizedSet(RealSet.open(0, 1), (4.0,))
        assert sets.sup_r(g) == 4.0
        assert sets.max_r(g) == 4.0


class TestWireFormat:
    def test_set_round_trip(self):
        g = GeneralizedSet(
            RealSet((Interval(0, 1, True, False), Interval(2, INF, False, False)), (1.5,)),
            (-3.0,),
        )
        assert sets.set_from_json(sets.set_to_json(g)) == g

    def test_infinite_endpoints_encode_as_strings(self):
        doc = sets.set_to_dict(hat_interval("ray_lt", 2))
        assert doc["intervals"][0]["lo"] == "-inf"
        assert doc["intervals"][0]["hi"] == 2.0


_grid = st.sampled_from([k / 2 for k in range(-6, 7)])
_realsets = st.builds(
    lambda ivs, pts: RealSet(
        tuple(Interval(min(a, b), max(a, b), lc, hc) for a, b, lc, hc in ivs),
        tuple(pts),
    ),
    st.lists(st.tuples(_grid, _grid, st.booleans(), st.booleans()), max_size=3),
    st.lists(_grid, max_size=2),
)
_samples = [k / 4 for k in range(-13, 14)]


@settings(deadline=None, max_examples=80, derandomize=True)
@given(_realsets, _realsets)
def test_boolean_operations_agree_with_pointwise_membership(a, b):
    union, inter, diff = a.union(b), a.intersect(b), a.difference(b)
    for p in _samples:
        assert union.contains(p) == (a.contains(p) or b.contains(p))
        assert inter.contains(p) == (a.contains(p) and b.contains(p))
        assert diff.contains(p) == (a.contains(p) and not b.contains(p))
        assert a.complement().contains(p) == (not a.contains(p))


@settings(deadline=None, max_examples=80, derandomize=True)
@given(_realsets, _realsets)
def test_monad_operator_preserves_boolean_structure(a, b):
    assert monad(a.union(b)) == sets.union(monad(a), monad(b))
    assert monad(a.intersect(b)) == sets.intersect(monad(a), monad(b))
    assert monad(a.difference(b)) == sets.difference(monad(a), monad(b))
    assert shadow(monad(a)) == a
    assert monad(monad(a)) == monad(a)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(_realsets)
def test_interior_and_closure_sandwich_the_set(a):
    interior, closed = a.interior(), a.closure()
    for p in _samples:
        if interior.contains(p):
            assert a.contains(p)
        if a.contains(p):
            assert closed.contains(p)
    assert interior.interior() == interior
    assert closed.closure() == closed


# -- differential test of the sorted sweeps against raw membership ----------------

_GRID = [float(k) for k in range(31)]
_raw_intervals = st.lists(
    st.builds(
        lambda lo, width, lc, hc, ray: {
            "left": (-INF, lo, lc, hc), "right": (lo, INF, lc, hc)
        }.get(ray, (lo, lo + width, lc, hc)),
        st.sampled_from(_GRID),
        st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.0]),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["left", "right"] + [None] * 10),
    ),
    max_size=40,
)
_raw_points = st.lists(st.sampled_from(_GRID), max_size=10)
# every endpoint and every midpoint, plus one point beyond each end
_SWEEP_SAMPLES = [k / 2 for k in range(-2, 2 * len(_GRID) + 1)]


def _raw_member(ivs, pts, x):
    return x in pts or any(
        lo <= x <= hi and (x != lo or lc) and (x != hi or hc) for lo, hi, lc, hc in ivs
    )


def _assert_normalized(s):
    ivs = s.intervals
    for iv in ivs:
        assert iv.lo < iv.hi
        assert math.isfinite(iv.lo) or not iv.lo_closed
        assert math.isfinite(iv.hi) or not iv.hi_closed
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi < b.lo or (a.hi == b.lo and not a.hi_closed and not b.lo_closed)
    assert list(s.points) == sorted(set(s.points))
    for p in s.points:
        assert not any(iv.lo <= p <= iv.hi for iv in ivs)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(_raw_intervals, _raw_points, _raw_intervals, _raw_points)
def test_sweeps_agree_with_raw_membership(ivs_a, pts_a, ivs_b, pts_b):
    a = RealSet(tuple(Interval(*t) for t in ivs_a), tuple(pts_a))
    b = RealSet(tuple(Interval(*t) for t in ivs_b), tuple(pts_b))

    def in_a(x):
        return _raw_member(ivs_a, pts_a, x)

    def in_b(x):
        return _raw_member(ivs_b, pts_b, x)

    def near_a(x):  # x with its two neighbouring cells, where x is a grid point
        return (in_a(x - 0.5), in_a(x), in_a(x + 0.5)) if x == int(x) else (in_a(x),) * 3

    results = {
        "contains": (a, in_a),
        "union": (a.union(b), lambda x: in_a(x) or in_b(x)),
        "intersect": (a.intersect(b), lambda x: in_a(x) and in_b(x)),
        "difference": (a.difference(b), lambda x: in_a(x) and not in_b(x)),
        "complement": (a.complement(), lambda x: not in_a(x)),
        "interior": (a.interior(), lambda x: all(near_a(x))),
        "closure": (a.closure(), lambda x: any(near_a(x))),
        "boundary": (a.boundary(), lambda x: any(near_a(x)) and not all(near_a(x))),
    }
    for name, (got, want) in results.items():
        _assert_normalized(got)
        for x in _SWEEP_SAMPLES:
            assert got.contains(x) == want(x), (name, x)


def _seeded_set(seed, n=4000, m=1000):
    rng = random.Random(seed)
    ivs = []
    for _ in range(n):
        lo = rng.randrange(40 * n) / 4
        ivs.append(Interval(lo, lo + rng.randrange(1, 8) / 4, rng.random() < 0.5, rng.random() < 0.5))
    return RealSet(tuple(ivs), tuple(rng.randrange(40 * n) / 4 for _ in range(m)))


def test_intersect_and_difference_stay_near_linear():
    # At this size a quadratic intersect takes seconds and a sweep tens of ms.
    a, b = _seeded_set(1), _seeded_set(2)
    start = time.process_time()
    a.intersect(b)
    a.difference(b)
    elapsed = time.process_time() - start
    assert elapsed < 0.5, f"{elapsed:.2f}s for intersect + difference at n = 4000"


# -- typed errors at the set boundary ------------------------------------------------

_HUGE = 10**400  # an int beyond the float range


@pytest.mark.parametrize(
    "build",
    [
        lambda: RealSet.interval(0, _HUGE),
        lambda: RealSet.point(_HUGE),
        lambda: hat_interval("closed", 0, _HUGE),
        lambda: hat_interval("ray_ge", _HUGE),
        lambda: RealSet.closed(0, 1).contains(_HUGE),
        lambda: GeneralizedSet(RealSet(), (_HUGE,)),
    ],
    ids=["interval", "point", "hat_closed", "hat_ray_ge", "contains", "extras"],
)
def test_ints_beyond_the_float_range_are_domain_errors(build):
    with pytest.raises(DomainError, match="beyond the float range"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: RealSet.point("abc"),
        lambda: RealSet.point("1.5"),
        lambda: RealSet.point(True),
        lambda: RealSet.interval(None, 1),
        lambda: RealSet.open(0, "2"),
        lambda: hat_interval("closed", "a", 1),
        lambda: hat_interval("ray_ge", False),
        lambda: RealSet(((None, 1, True, True),)),
        lambda: RealSet((), ("abc",)),
        lambda: RealSet(((0, 1),)),
        lambda: RealSet((("1", "2", True, True),), ("3",)),
        lambda: RealSet(((0, "2", True, True),)),
        lambda: RealSet((), ("1.5",)),
        lambda: RealSet(((True, 2, True, True),)),
        lambda: RealSet((), (False,)),
        lambda: RealSet(((Fraction(1, 2), 1, True, True),)),
        lambda: RealSet((), (Fraction(3, 2),)),
        lambda: RealSet(((0, Decimal("2"), True, True),)),
    ],
    ids=["point_text", "point_numeric_text", "point_bool", "interval_none", "open_text",
         "hat_closed_text", "hat_ray_bool", "raw_none", "raw_point_text", "raw_short_tuple",
         "raw_numeric_text", "raw_hi_text", "raw_point_numeric_text", "raw_bool",
         "raw_point_bool", "raw_fraction", "raw_point_fraction", "raw_decimal"],
)
def test_set_constructors_take_only_numbers(build):
    with pytest.raises(DomainError):
        build()


def test_the_raw_constructor_keeps_its_two_messages():
    malformed = (
        "malformed set: intervals are (lo, hi, lo_closed, hi_closed) with numeric "
        "endpoints, and points are numbers"
    )
    for raw, pts in ([(("1", "2", True, True),), ("3",)], [(), (True,)],
                     [((Fraction(1, 2), 1, True, True),), ()]):
        with pytest.raises(DomainError, match=f"^{re.escape(malformed)}$"):
            RealSet(raw, pts)
    with pytest.raises(DomainError, match="^a number lies beyond the float range$"):
        RealSet(((0, _HUGE, True, True),))


# -- normalization over raw 4-tuples against the dataclass version it replaced -------


@dataclass(frozen=True)
class _OldInterval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True


def _old_check_endpoint(v, what):
    v = float(v)
    if math.isnan(v):
        raise DomainError(f"{what} may not be NaN")
    return 0.0 if v == 0.0 else v


def _old_normalize(intervals, points):
    """The normalization before intervals became named tuples (the oracle)."""
    ints = []
    for iv in intervals:
        lo = _old_check_endpoint(iv.lo, "interval lo")
        hi = _old_check_endpoint(iv.hi, "interval hi")
        lc = bool(iv.lo_closed) and math.isfinite(lo)
        hc = bool(iv.hi_closed) and math.isfinite(hi)
        if lo > hi:
            raise DomainError(f"interval endpoints out of order: {lo} > {hi}")
        if lo == hi:
            if not math.isfinite(lo):
                raise DomainError("interval endpoints may not both be infinite")
            if not (lc and hc):
                continue
        ints.append([lo, hi, lc, hc])
    for p in points:
        p = float(p)
        if not math.isfinite(p):
            raise DomainError("set points must be finite reals")
        p = 0.0 if p == 0.0 else p
        ints.append([p, p, True, True])
    ints.sort(key=lambda t: (t[0], not t[2]))
    merged = []
    for t in ints:
        if merged:
            m = merged[-1]
            if t[0] < m[1] or (t[0] == m[1] and (m[3] or t[2])):
                if t[1] > m[1]:
                    m[1], m[3] = t[1], t[3]
                elif t[1] == m[1]:
                    m[3] = m[3] or t[3]
                continue
        merged.append(t)
    return (
        tuple(_OldInterval(*t) for t in merged if t[0] != t[1]),
        tuple(t[0] for t in merged if t[0] == t[1]),
    )


def _outcome(fn, *args):
    """(intervals, points) with every number as its repr, or (type, message)."""
    try:
        ints, pts = fn(*args)
    except OverflowError:
        # the old code let float() overflow; the new one names it
        return DomainError, "a number lies beyond the float range"
    except Exception as exc:
        return type(exc), str(exc)
    return (
        [(repr(iv.lo), repr(iv.hi), iv.lo_closed, iv.hi_closed) for iv in ints],
        [repr(p) for p in pts],
    )


def _realset_parts(intervals, points):
    s = RealSet(intervals, points)
    return s.intervals, s.points


# few distinct values, so endpoints and points often coincide
_edge = st.sampled_from(
    [0, 1, 2, 0.0, -0.0, 0.5, 1.0, 1.5, 2.0, -1, -1.0, INF, -INF, math.nan, _HUGE]
)
_raw_tuples = st.lists(
    st.tuples(_edge, _edge, st.booleans(), st.booleans()), max_size=8
)
_raw_pts = st.lists(_edge, max_size=4)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(_raw_tuples, _raw_pts, st.booleans())
def test_normalize_agrees_with_the_dataclass_version(raw, pts, as_interval):
    want = _outcome(_old_normalize, [_OldInterval(*t) for t in raw], pts)
    given_ints = [Interval(*t) for t in raw] if as_interval else raw
    assert _outcome(sets._normalize, given_ints, pts) == want
    assert _outcome(_realset_parts, given_ints, pts) == want


_ordered = st.lists(
    st.tuples(_grid, _grid, st.booleans(), st.booleans()).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2], t[3])
    ),
    max_size=4,
)
_gensets = st.builds(
    lambda ivs, pts, extras: GeneralizedSet(RealSet(ivs, pts), tuple(extras)),
    _ordered,
    st.lists(_grid, max_size=2),
    st.lists(_grid, max_size=2),
)


def _assert_intervals(s):
    base = s.base if isinstance(s, GeneralizedSet) else s
    assert all(type(iv) is Interval for iv in base.intervals)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(_gensets, _gensets)
def test_every_operation_returns_interval_instances(g1, g2):
    a, b = g1.base, g2.base
    for s in (a, b, RealSet(a.intervals, a.points)):
        _assert_intervals(s)
    for s in (a.union(b), a.intersect(b), a.difference(b), a.complement()):
        _assert_intervals(s)
    for s in (a.interior(), a.closure(), a.boundary(), a.exterior(), shadow(g1)):
        _assert_intervals(s)
    for g in (sets.union(g1, g2), sets.intersect(g1, g2), monad(a), monad(g1)):
        _assert_intervals(g)
    try:
        _assert_intervals(sets.difference(g1, g2))
    except NotRepresentable:
        pass
    for op in ("interior", "closure", "boundary", "exterior"):
        _assert_intervals(sets.topo(op, monad(a)))
    _assert_intervals(sets.set_from_json(sets.set_to_json(g1)))
    for kind in sets.INTERVAL_KINDS:
        _assert_intervals(hat_interval(kind, 0.0, 1.0))


def test_interval_repr_is_unchanged():
    assert repr(Interval(0.0, 1.5, True, False)) == (
        "Interval(lo=0.0, hi=1.5, lo_closed=True, hi_closed=False)"
    )
    old = repr(_OldInterval(-INF, 2, False)).replace("_OldInterval", "Interval")
    assert repr(Interval(-INF, 2, False)) == old
    assert repr(RealSet.open(0, INF)) == (
        "RealSet(intervals=(Interval(lo=0.0, hi=inf, lo_closed=False, hi_closed=False),), "
        "points=())"
    )


def test_equality_and_hashing_compare_the_normalized_form():
    raw = RealSet([(2, 3, True, True), (-0.0, 1, False, True), (1, 2, False, False)], [2])
    tidy = RealSet((Interval(0.0, 3.0, False, True),))
    assert raw == tidy and hash(raw) == hash(tidy)
    assert Interval(0.0, 3.0, False, True) == (0.0, 3.0, False, True)
    assert RealSet.open(0, 1) != RealSet.closed(0, 1)
    assert len({raw, tidy, RealSet.open(0, 3)}) == 2


# -- one check at the edge: the wire reader, the constructor and the operations --------

_WIRE_INF = {"+inf": INF, "inf": INF, "-inf": -INF}
# mostly finite values, so that most documents give a set; JSON NaN and
# Infinity, the infinity strings, and repeated values give degenerate,
# out-of-order and doubly infinite intervals
_wire_endpoint = st.sampled_from(
    [0, 1, 2, -1, 0.0, -0.0, 0.5, 1.0, 1.5, 2.0, -1.0, -2.5, 3.0, 4.5]
    + ["+inf", "inf", "-inf", math.nan, INF, -INF]
)
_wire_point = st.sampled_from([0, 1, -2, 0.0, -0.0, 1.0, 0.5, 2.5, 4.5, math.nan, INF, -INF])
_wire_items = st.lists(
    st.tuples(_wire_endpoint, _wire_endpoint, st.booleans(), st.booleans()), max_size=6
)


def _parts(build):
    """The set's parts as reprs (signed zeros tell apart), or (type, message)."""
    try:
        s = build()
    except Exception as exc:
        return type(exc), str(exc)
    return repr(s.intervals), repr(s.points)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(_wire_items, st.lists(_wire_point, max_size=4))
def test_a_wire_document_reads_as_the_constructor_builds(items, pts):
    doc = {
        "intervals": [{"lo": lo, "hi": hi, "lo_closed": lc, "hi_closed": hc}
                      for lo, hi, lc, hc in items],
        "points": pts,
    }
    raw = [(_WIRE_INF.get(lo, lo) if isinstance(lo, str) else lo,
            _WIRE_INF.get(hi, hi) if isinstance(hi, str) else hi, lc, hc)
           for lo, hi, lc, hc in items]
    text = json.dumps(doc)  # NaN and Infinity as JSON's extension writes them
    assert _parts(lambda: sets.set_from_json(text).base) == _parts(lambda: RealSet(raw, pts))


def _meet(x, y):
    """The raw tuple of two intervals' intersection, or None when it is empty."""
    lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
    lc, hc = x.contains(lo) and y.contains(lo), x.contains(hi) and y.contains(hi)
    return (lo, hi, lc, hc) if lo < hi or (lo == hi and lc and hc) else None


def _raw_complement(s):
    """The gaps between the components of s, as raw tuples."""
    comps = sorted([tuple(iv) for iv in s.intervals] + [(p, p, True, True) for p in s.points])
    gaps, lo, lc = [], -INF, False
    for c_lo, c_hi, c_lc, c_hc in comps:
        if lo < c_lo or (lo == c_lo and lc and not c_lc):
            gaps.append((lo, c_lo, lc, not c_lc))
        lo, lc = c_hi, not c_hc
    return gaps + [(lo, INF, lc, False)] if lo < INF else gaps


def _same(got, want):
    assert repr(got) == repr(want)
    assert sets._normalize(got.intervals, got.points) == (got.intervals, got.points)
    assert repr(RealSet(got.intervals, got.points)) == repr(got)


_raw_sets = st.builds(
    lambda ivs, pts: RealSet(tuple(Interval(*t) for t in ivs), tuple(pts)),
    _raw_intervals.map(lambda ivs: ivs[:8]),
    _raw_points,
)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(_raw_sets, _raw_sets, st.lists(st.sampled_from(_GRID + [0.5, 40.0]), max_size=3))
def test_each_operation_is_the_constructor_on_its_raw_tuples(a, b, extras):
    _same(a.union(b), RealSet(a.intervals + b.intervals, a.points + b.points))
    meets = [m for x in a.intervals for y in b.intervals if (m := _meet(x, y))]
    met_pts = [p for p in a.points if b.contains(p)] + [p for p in b.points if a.contains(p)]
    _same(a.intersect(b), RealSet(meets, met_pts))
    _same(a.complement(), RealSet(_raw_complement(a)))
    _same(a.difference(b), RealSet(_raw_complement(b)).intersect(a))
    _same(a.interior(), RealSet([(iv.lo, iv.hi, False, False) for iv in a.intervals]))
    _same(a.closure(), RealSet([(iv.lo, iv.hi, True, True) for iv in a.intervals], a.points))
    _same(a.boundary(), a.closure().difference(a.interior()))
    _same(a.exterior(), a.complement().interior())
    g = GeneralizedSet(a, tuple(extras))
    _same(shadow(g), RealSet(a.intervals, a.points + g.extras))


def _counting(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(sets, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(sets, name, counted)
    return calls


def test_decoding_checks_each_wire_interval_once_and_merges_once(monkeypatch):
    calls = _counting(monkeypatch, "_entry", "_merge", "_normalize")
    doc = {
        "intervals": [
            {"lo": "-inf", "hi": -3.0, "lo_closed": False, "hi_closed": True},
            {"lo": 0, "hi": 1, "lo_closed": True, "hi_closed": False},
            {"lo": 1.0, "hi": 1.0, "lo_closed": False, "hi_closed": True},  # empty
            {"lo": 1.0, "hi": 2.0},
            {"lo": 5.0, "hi": "+inf", "lo_closed": False, "hi_closed": False},
        ],
        "points": [-5.0, 3, 4.0],
        "extras": [-10.0],
    }
    g = sets.set_from_json(json.dumps(doc))
    assert calls == {"_entry": 5, "_merge": 1, "_normalize": 0}
    assert g.base == RealSet(
        [(-INF, -3.0, False, True), (0.0, 2.0, True, True), (5.0, INF, False, False)],
        [-5.0, 3.0, 4.0],
    )


def test_no_set_operation_runs_the_raw_conversion(monkeypatch):
    a = RealSet(((-INF, -1.0, False, True), (0.0, 1.0, True, False), (2.0, 3.0, False, False)),
                (1.5, 2.0))
    b = RealSet(((-2.0, 0.5, True, True), (2.5, INF, True, False)), (1.0,))
    g1, g2 = GeneralizedSet(a, (-1.5,)), GeneralizedSet(b, (4.0,))
    text = sets.set_to_json(g1)
    calls = _counting(monkeypatch, "_entry", "_normalize")
    results = [a.union(b), a.intersect(b), a.difference(b), a.complement(), a.interior(),
               a.closure(), a.boundary(), a.exterior(), shadow(g1), monad(g1).base]
    results += [f(g1, g2).base for f in (sets.union, sets.intersect)]
    results += [sets.topo(op, monad(a)).base for op in ("interior", "closure", "boundary", "exterior")]
    assert calls == {"_entry": 0, "_normalize": 0}
    assert sets.set_from_json(text) == g1 and calls["_normalize"] == 0
    for s in results:
        _assert_normalized(s)
        _assert_intervals(s)
