"""Sets of reals, their monads, and shadows.

``RealSet`` is a finite union of disjoint real intervals plus a finite set
of stray points, kept in a canonical normalized form (sorted, merged,
points absorbed into touching intervals).  ``GeneralizedSet`` represents a
subset of the generalized continuum of the shape

    monad(base) union extras,

where ``base`` is a RealSet and ``extras`` are finitely many bare real
points outside it.  Monadic sets (empty ``extras``) are closed under all
the operators here; the extras exist for images of closed intervals under
functions whose derivative vanishes at an endpoint.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import JSON_NUMBER_TYPES, Record, _loads, _real, as_generalized, from_json, sigma
from .errors import (
    DomainError,
    EmptySetError,
    LengthUndefined,
    NonFiniteInput,
    NotMonadic,
    NotRepresentable,
    UnboundedError,
)

_INF = math.inf


class Interval(NamedTuple):
    """One real interval; infinite endpoints are always open.

    A named tuple, so it compares equal to the plain 4-tuple
    ``(lo, hi, lo_closed, hi_closed)``, the raw form ``RealSet`` accepts.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, p: float) -> bool:
        lo, hi, lo_closed, hi_closed = self
        if not lo <= p <= hi:
            return False
        if p == lo and not lo_closed:
            return False
        if p == hi and not hi_closed:
            return False
        return True

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


def _in_sorted(xs: Sequence[float], p: float) -> bool:
    k = bisect_left(xs, p)
    return k < len(xs) and xs[k] == p


# A merge entry is (lo, lo_open, hi, hi_closed).  This one sorts after every
# other and merges with none, so it flushes the last.
_END = (_INF, True, _INF, False)


def _entry(lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> tuple | None:
    """The one check of an interval's values (ints or floats by exact type, an
    int beyond the float range an OverflowError): its merge entry, or None."""
    lo += 0.0  # an int becomes a float, and -0.0 becomes 0.0
    if lo != lo:
        raise DomainError("interval lo may not be NaN")
    hi += 0.0
    if hi != hi:
        raise DomainError("interval hi may not be NaN")
    lo_closed = lo_closed and lo > -_INF
    hi_closed = hi_closed and hi < _INF
    if lo >= hi:
        if lo > hi:
            raise DomainError(f"interval endpoints out of order: {lo} > {hi}")
        if not -_INF < lo < _INF:
            raise DomainError("interval endpoints may not both be infinite")
        if not (lo_closed and hi_closed):
            return None  # a degenerate open or half-open interval is empty
    return (lo, not lo_closed, hi, hi_closed)


def _point(p: float) -> tuple:
    """The merge entry of a set point, an int or a float by exact type."""
    p += 0.0
    if not -_INF < p < _INF:
        raise DomainError("set points must be finite reals")
    return (p, False, p, True)


def _entries(intervals: Iterable[Interval], points: Iterable[float]) -> list[tuple]:
    """The merge entries of intervals and points already in normal form."""
    out = [(lo, not lc, hi, hc) for lo, hi, lc, hc in intervals]
    return out + [(p, False, p, True) for p in points]


def _merge(entries: list[tuple]) -> tuple[tuple[Interval, ...], tuple[float, ...]]:
    """Sort and consume checked merge entries; return the normal form's parts."""
    # A point is a closed entry [p, p], so one pass closes an open endpoint it
    # sits on and bridges (a, p) and (p, b); degenerate survivors are the stray
    # points.  Tuple order puts closed lows first, so the first entry at a low
    # sets its closedness, whatever the order of entries sharing (lo, lo_open).
    entries.sort()
    entries.append(_END)
    out_ints, out_pts = [], []
    new, it = tuple.__new__, iter(entries)
    lo, lo_open, hi, hc = next(it)
    for t_lo, t_open, t_hi, t_hc in it:
        if t_lo < hi or (t_lo == hi and (hc or not t_open)):
            if t_hi > hi:
                hi, hc = t_hi, t_hc
            elif t_hi == hi:
                hc = hc or t_hc
            continue
        if lo == hi:
            out_pts.append(lo)
        else:
            out_ints.append(new(Interval, (lo, hi, not lo_open, hc)))
        lo, lo_open, hi, hc = t_lo, t_open, t_hi, t_hc
    return tuple(out_ints), tuple(out_pts)


def _normalize(intervals: Iterable[tuple], points: Iterable[float]) -> tuple[tuple, tuple]:
    """Check raw ``(lo, hi, lo_closed, hi_closed)`` tuples (an ``Interval`` is
    one) and points with int or float numbers; return the normal form's parts."""
    entries = []
    try:
        for lo, hi, lc, hc in intervals:
            if type(lo) not in JSON_NUMBER_TYPES or type(hi) not in JSON_NUMBER_TYPES:
                raise TypeError
            if (entry := _entry(lo, hi, bool(lc), bool(hc))) is not None:
                entries.append(entry)
        for p in points:
            if type(p) not in JSON_NUMBER_TYPES:
                raise TypeError
            entries.append(_point(p))
    except OverflowError:
        raise DomainError("a number lies beyond the float range") from None
    except (TypeError, ValueError):
        raise DomainError("malformed set: intervals are (lo, hi, lo_closed, hi_closed) with "
                          "numeric endpoints, and points are numbers") from None
    return _merge(entries)


class RealSet(Record):
    """Finite union of disjoint intervals plus a finite point set, normalized.

    ``intervals`` may be given as plain ``(lo, hi, lo_closed, hi_closed)``
    tuples; the normalized form holds ``Interval``s.
    """

    __slots__ = ("intervals", "points", "_lows")

    def __init__(self, intervals: Iterable[tuple] = (), points: Iterable[float] = ()) -> None:
        self._set(*_normalize(intervals, points))

    def _set(self, ints: tuple[Interval, ...], pts: tuple[float, ...]) -> "RealSet":
        object.__setattr__(self, "intervals", ints)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_lows", [iv.lo for iv in ints])
        return self

    @classmethod
    def _of(cls, entries: list[tuple]) -> "RealSet":
        """The set of checked merge entries, as the operations and the wire reader make them."""
        return object.__new__(cls)._set(*_merge(entries))

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls) -> "RealSet":
        return cls()

    @classmethod
    def reals(cls) -> "RealSet":
        return cls(((-_INF, _INF, False, False),))

    @classmethod
    def point(cls, p: float) -> "RealSet":
        return cls((), (_real(p, "set point"),))

    @classmethod
    def interval(
        cls, lo: float, hi: float, lo_closed: bool = True, hi_closed: bool = True
    ) -> "RealSet":
        lo, hi = _real(lo, "interval lo"), _real(hi, "interval hi")
        return cls(((lo, hi, lo_closed, hi_closed),))

    @classmethod
    def closed(cls, lo: float, hi: float) -> "RealSet":
        return cls.interval(lo, hi, True, True)

    @classmethod
    def open(cls, lo: float, hi: float) -> "RealSet":
        return cls.interval(lo, hi, False, False)

    # -- queries ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.points

    def contains(self, p: float) -> bool:
        if type(p) is not float:
            p = _real(p, "point")
        i = bisect_right(self._lows, p) - 1
        return (i >= 0 and self.intervals[i].contains(p)) or _in_sorted(self.points, p)

    @property
    def is_bounded(self) -> bool:
        ints = self.intervals
        return not ints or (math.isfinite(ints[0].lo) and math.isfinite(ints[-1].hi))

    # -- boolean algebra ------------------------------------------------------

    def union(self, other: "RealSet") -> "RealSet":
        return RealSet._of(_entries(self.intervals + other.intervals, self.points + other.points))

    def intersect(self, other: "RealSet") -> "RealSet":
        # Both interval lists are sorted and disjoint: sweep them together,
        # retiring the side that ends first.
        xs, ys = self.intervals, other.intervals
        ints = []
        i = j = 0
        while i < len(xs) and j < len(ys):
            alo, ahi, alc, ahc = xs[i]
            blo, bhi, blc, bhc = ys[j]
            if alo > blo:
                lo, lc = alo, alc
            elif blo > alo:
                lo, lc = blo, blc
            else:
                lo, lc = alo, alc and blc
            if ahi < bhi:
                hi, hc = ahi, ahc
                i += 1
            elif bhi < ahi:
                hi, hc = bhi, bhc
                j += 1
            else:
                hi, hc = ahi, ahc and bhc
                i += 1
                j += 1
            if lo < hi or (lo == hi and lc and hc):
                ints.append((lo, not lc, hi, hc))
        pts = [p for p in self.points if other.contains(p)]
        pts += [p for p in other.points if self.contains(p)]
        return RealSet._of(ints + _entries((), pts))

    def complement(self) -> "RealSet":
        # the components are disjoint, so their entries sort by their lows
        comps = _entries(self.intervals, self.points)
        comps.sort()
        gaps = []
        cur_lo, cur_open = -_INF, True
        for lo, lo_open, hi, hc in comps:
            if cur_lo < lo or (cur_lo == lo and not cur_open and lo_open):
                gaps.append((cur_lo, cur_open, lo, lo_open))
            cur_lo, cur_open = hi, hc
        if cur_lo < _INF:
            gaps.append((cur_lo, cur_open, _INF, False))
        return RealSet._of(gaps)

    def difference(self, other: "RealSet") -> "RealSet":
        return self.intersect(other.complement())

    # -- standard topology ----------------------------------------------------

    def interior(self) -> "RealSet":
        return RealSet._of([(lo, True, hi, False) for lo, hi, _, _ in self.intervals])

    def closure(self) -> "RealSet":
        ints = [(lo, lo == -_INF, hi, hi < _INF) for lo, hi, _, _ in self.intervals]
        return RealSet._of(ints + _entries((), self.points))

    def boundary(self) -> "RealSet":
        return self.closure().difference(self.interior())

    def exterior(self) -> "RealSet":
        return self.complement().interior()

    @property
    def is_open(self) -> bool:
        return self == self.interior()

    @property
    def is_closed(self) -> bool:
        return self == self.closure()

    @property
    def is_compact(self) -> bool:
        return self.is_closed and self.is_bounded

    @property
    def is_connected(self) -> bool:
        return len(self.intervals) + len(self.points) <= 1


class GeneralizedSet(Record):
    """monad(base) plus finitely many bare real points outside the base."""

    __slots__ = ("base", "extras")

    def __init__(self, base: RealSet = RealSet(), extras: Iterable[float] = ()) -> None:
        self._set(base, extras, "extra point")

    def _set(self, base: RealSet, extras: Iterable, what: str) -> "GeneralizedSet":
        cleaned = set()
        for p in extras:
            p = _real(p, what)
            if not math.isfinite(p):
                raise DomainError("extra points must be finite reals")
            cleaned.add(0.0 if p == 0.0 else p)
        kept = sorted(p for p in cleaned if not base.contains(p))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "extras", tuple(kept))
        return self

    @property
    def is_monadic(self) -> bool:
        return not self.extras

    @property
    def is_empty(self) -> bool:
        return self.base.is_empty and not self.extras


# -- monads and shadows ---------------------------------------------------------


def monad(s: "RealSet | GeneralizedSet") -> GeneralizedSet:
    """The union of the monads of all members."""
    if isinstance(s, GeneralizedSet):
        return GeneralizedSet(shadow(s), ())
    return GeneralizedSet(s, ())


def shadow(g: "GeneralizedSet | RealSet") -> RealSet:
    """The set of shadows of all members."""
    if isinstance(g, RealSet):
        return g
    return RealSet._of(_entries(g.base.intervals, g.base.points + g.extras))


def member(x, g: GeneralizedSet) -> bool:
    x = as_generalized(x)
    if g.base.contains(x.shadow):
        return True
    return x.is_real and _in_sorted(g.extras, x.shadow)


def union(g1: GeneralizedSet, g2: GeneralizedSet) -> GeneralizedSet:
    return GeneralizedSet(g1.base.union(g2.base), g1.extras + g2.extras)


def intersect(g1: GeneralizedSet, g2: GeneralizedSet) -> GeneralizedSet:
    base = g1.base.intersect(g2.base)
    extras = [p for p in g1.extras if g2.base.contains(p) or _in_sorted(g2.extras, p)]
    extras += [p for p in g2.extras if g1.base.contains(p)]
    return GeneralizedSet(base, tuple(extras))


def difference(g1: GeneralizedSet, g2: GeneralizedSet) -> GeneralizedSet:
    base = g1.base.difference(g2.base)
    for p in g2.extras:
        if base.contains(p):
            # removing one bare real from a monad leaves a set that is not
            # of monad-plus-points shape
            raise NotRepresentable(f"difference would puncture the monad at {p!r}")
    extras = [
        p for p in g1.extras if not g2.base.contains(p) and not _in_sorted(g2.extras, p)
    ]
    return GeneralizedSet(base, tuple(extras))


# -- intervals in the generalized continuum -------------------------------------

INTERVAL_KINDS = (
    "closed", "open", "half_lo", "half_hi", "ray_ge", "ray_gt", "ray_le", "ray_lt", "full"
)


def hat_interval(kind: str, a: float | None = None, b: float | None = None) -> GeneralizedSet:
    """Monad of the real interval of the given kind.

    ``half_lo`` includes only the lower endpoint, ``half_hi`` only the upper
    one; ``ray_ge``/``ray_gt`` extend to +infinity from a and
    ``ray_le``/``ray_lt`` to -infinity from b (rays take one endpoint).
    """
    if kind == "full":
        return monad(RealSet.reals())
    if kind in ("ray_ge", "ray_gt"):
        if a is None:
            raise DomainError(f"{kind} needs its finite endpoint")
        return monad(RealSet.interval(a, _INF, kind == "ray_ge", False))
    if kind in ("ray_le", "ray_lt"):
        endpoint = b if b is not None else a
        if endpoint is None:
            raise DomainError(f"{kind} needs its finite endpoint")
        return monad(RealSet.interval(-_INF, endpoint, False, kind == "ray_le"))
    if kind not in ("closed", "open", "half_lo", "half_hi"):
        raise DomainError(f"unknown interval kind {kind!r}")
    if a is None or b is None:
        raise DomainError(f"{kind} interval needs both endpoints")
    lo_closed = kind in ("closed", "half_lo")
    hi_closed = kind in ("closed", "half_hi")
    return monad(RealSet.interval(a, b, lo_closed, hi_closed))


def length(g: GeneralizedSet) -> float:
    """Length of a bounded interval-shaped set (0 for monads of points and
    for the empty set)."""
    if g.extras:
        raise LengthUndefined("length is only defined for monadic interval sets")
    base = g.base
    if not base.intervals and len(base.points) <= 1:
        return 0.0
    if len(base.intervals) == 1 and not base.points:
        iv = base.intervals[0]
        if not iv.bounded:
            raise LengthUndefined("length is undefined for unbounded intervals")
        if iv.hi - iv.lo == _INF:
            raise NonFiniteInput(f"the length of {iv} exceeds the float range")
        return iv.hi - iv.lo
    raise LengthUndefined("length is undefined for non-interval sets")


# -- topology, transported along monads ------------------------------------------


def _require_monadic(g: GeneralizedSet, op: str) -> RealSet:
    if not g.is_monadic:
        raise NotMonadic(f"{op} requires a monadic set (no extra points)")
    return g.base


def interior(g: GeneralizedSet) -> GeneralizedSet:
    return monad(_require_monadic(g, "interior").interior())


def closure(g: GeneralizedSet) -> GeneralizedSet:
    return monad(_require_monadic(g, "closure").closure())


def boundary(g: GeneralizedSet) -> GeneralizedSet:
    return monad(_require_monadic(g, "boundary").boundary())


def exterior(g: GeneralizedSet) -> GeneralizedSet:
    return monad(_require_monadic(g, "exterior").exterior())


_TOPO_OPS = {"interior": interior, "exterior": exterior, "boundary": boundary, "closure": closure}


def topo(op: str, g: GeneralizedSet) -> GeneralizedSet:
    try:
        fn = _TOPO_OPS[op]
    except KeyError:
        raise DomainError(f"unknown topology operator {op!r}") from None
    return fn(g)


def is_open(g: GeneralizedSet) -> bool:
    return _require_monadic(g, "is_open").is_open


def is_closed(g: GeneralizedSet) -> bool:
    return _require_monadic(g, "is_closed").is_closed


def is_compact(g: GeneralizedSet) -> bool:
    return _require_monadic(g, "is_compact").is_compact


def is_connected(g: GeneralizedSet) -> bool:
    return _require_monadic(g, "is_connected").is_connected


# -- bounds and the completeness interface ----------------------------------------


def _extremum(g: GeneralizedSet, upper: bool) -> tuple[float, bool]:
    """(value, attained) for the sup (upper) or inf of the shadow of g;
    raises on an empty set and on an unbounded side.  Reads the sorted base
    and extras without building the shadow: an extra lies outside the base,
    so it can only close an open endpoint it sits on, and a point wins a tie."""
    if g.is_empty:
        raise EmptySetError("the empty set has no supremum or infimum")
    end = -1 if upper else 0
    ends = [(pts[end], True) for pts in (g.base.points, g.extras) if pts]
    if g.base.intervals:
        iv = g.base.intervals[end]
        ends.append((iv.hi, iv.hi_closed) if upper else (iv.lo, iv.lo_closed))
    best, attained = max(ends, key=lambda e: (e[0] if upper else -e[0], e[1]))
    if not math.isfinite(best):
        raise UnboundedError("the set is unbounded on the requested side")
    return best, attained


def sup_r(g: GeneralizedSet) -> float:
    return _extremum(g, True)[0]


def inf_r(g: GeneralizedSet) -> float:
    return _extremum(g, False)[0]


def max_r(g: GeneralizedSet) -> float | None:
    value, attained = _extremum(g, True)
    return value if attained else None


def min_r(g: GeneralizedSet) -> float | None:
    value, attained = _extremum(g, False)
    return value if attained else None


def is_upper_bound(bound, g: GeneralizedSet) -> bool:
    try:
        sup = _extremum(g, True)[0]
    except EmptySetError:
        return True
    except UnboundedError:
        return False
    return sigma(bound) >= sup


def is_lower_bound(bound, g: GeneralizedSet) -> bool:
    try:
        inf = _extremum(g, False)[0]
    except EmptySetError:
        return True
    except UnboundedError:
        return False
    return sigma(bound) <= inf


# -- wire format ---------------------------------------------------------------------


def _dec_endpoint(v) -> float:
    if v == "+inf" or v == "inf":
        return _INF
    if v == "-inf":
        return -_INF
    return _real(v, "malformed set encoding: an interval endpoint")


def realset_to_dict(s: RealSet) -> dict:
    # in normal form only lo can be -inf and only hi +inf
    ints = [{"lo": lo if lo > -_INF else "-inf", "hi": hi if hi < _INF else "+inf",
             "lo_closed": lc, "hi_closed": hc} for lo, hi, lc, hc in s.intervals]
    return {"intervals": ints, "points": list(s.points)}


def _dec_list(data: Mapping, key: str) -> Sequence:
    items = data.get(key, ())
    if not isinstance(items, (list, tuple)):
        raise DomainError(f"malformed set encoding: {key!r} must be a list")
    return items


def realset_from_dict(data: Mapping) -> RealSet:
    """Checks each item's types and values in document order: the first fault is the error."""
    if not isinstance(data, Mapping):
        raise DomainError(f"malformed set encoding: {data!r}")
    entries = []
    append = entries.append
    for item in _dec_list(data, "intervals"):
        try:
            lo, hi = item["lo"], item["hi"]
            lc, hc = item.get("lo_closed", True), item.get("hi_closed", True)
        except (KeyError, TypeError, AttributeError):
            raise DomainError(f"malformed interval encoding: {item!r}") from None
        if type(lc) is not bool or type(hc) is not bool:
            raise DomainError(f"malformed interval encoding: closedness must be true or false: {item!r}")
        lo = lo if type(lo) is float else _dec_endpoint(lo)
        hi = hi if type(hi) is float else _dec_endpoint(hi)
        if (entry := _entry(lo, hi, lc, hc)) is not None:
            append(entry)
    what = "malformed set encoding: a member of 'points'"
    for p in _dec_list(data, "points"):
        append(_point(p if type(p) is float else _real(p, what)))
    return RealSet._of(entries)


def set_to_dict(g: GeneralizedSet) -> dict:
    out = realset_to_dict(g.base)
    out["extras"] = list(g.extras)
    return out


def set_from_dict(data: Mapping) -> GeneralizedSet:
    what = "malformed set encoding: a member of 'extras'"
    return object.__new__(GeneralizedSet)._set(realset_from_dict(data), _dec_list(data, "extras"), what)


def set_to_json(g: GeneralizedSet) -> str:
    return json.dumps(set_to_dict(g))


def set_from_json(text: str) -> GeneralizedSet:
    return set_from_dict(_loads(text))


# -- the operations of ``monadica sets``, on JSON text ------------------------------


def _set_op(fn):
    return lambda *texts: set_to_dict(fn(*map(set_from_json, texts)))


def _query(fn):
    return lambda text: fn(set_from_json(text))


#: op name -> (function from the JSON arguments to a JSON-ready result, arity)
JSON_OPS = {
    "union": (_set_op(union), 2),
    "intersect": (_set_op(intersect), 2),
    "difference": (_set_op(difference), 2),
    "monad": (_set_op(monad), 1),
    "shadow": (lambda text: realset_to_dict(shadow(set_from_json(text))), 1),
    **{name: (_set_op(fn), 1) for name, fn in _TOPO_OPS.items()},
    "is_open": (_query(is_open), 1),
    "is_closed": (_query(is_closed), 1),
    "is_compact": (_query(is_compact), 1),
    "is_connected": (_query(is_connected), 1),
    "length": (_query(length), 1),
    "sup": (_query(sup_r), 1),
    "inf": (_query(inf_r), 1),
    "max": (_query(max_r), 1),
    "min": (_query(min_r), 1),
    "member": (lambda value, text: member(from_json(value), set_from_json(text)), 2),
}
