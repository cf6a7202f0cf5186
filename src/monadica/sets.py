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

from .core import JSON_NUMBER_TYPES, Record, as_generalized, from_json, sigma
from .errors import (
    DomainError,
    EmptySetError,
    LengthUndefined,
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


_BEYOND_FLOAT = "a number lies beyond the float range"


def _require_numbers(*vs) -> None:
    """Refuse anything but ints and floats, as the JSON decoders do: no
    strings, booleans or None."""
    for v in vs:
        if type(v) not in JSON_NUMBER_TYPES:
            raise DomainError(f"set endpoints and points must be numbers, not {v!r}")


def _real(v) -> float:
    """``float(v)``, where an int beyond the float range is a ``DomainError``."""
    try:
        return float(v)
    except OverflowError:
        raise DomainError(_BEYOND_FLOAT) from None


def _in_sorted(xs: Sequence[float], p: float) -> bool:
    k = bisect_left(xs, p)
    return k < len(xs) and xs[k] == p


# Sorts after every entry of _normalize and merges with none, so it flushes
# the last one.
_END = (_INF, True, _INF, False)


def _normalize(
    intervals: Iterable[tuple], points: Iterable[float]
) -> tuple[tuple[Interval, ...], tuple[float, ...]]:
    """Validate raw ``(lo, hi, lo_closed, hi_closed)`` tuples (an ``Interval``
    is one) and points; return the sorted, merged intervals and points."""
    # Points enter the sort as degenerate closed intervals [p, p], so one
    # merge pass closes the open endpoints they sit on and bridges (a, p)
    # and (p, b); the degenerate survivors are the stray points.  Entries
    # are (lo, lo_open, hi, hi_closed): plain tuple order puts closed lows
    # first, so the first entry at a low sets its closedness, and the merge
    # does not depend on the order of entries that share (lo, lo_open).
    ints = []
    append = ints.append
    try:
        for lo, hi, lc, hc in intervals:
            lo = float(lo) + 0.0
            if lo != lo:
                raise DomainError("interval lo may not be NaN")
            hi = float(hi) + 0.0
            if hi != hi:
                raise DomainError("interval hi may not be NaN")
            lc = bool(lc) and -_INF < lo < _INF
            hc = bool(hc) and -_INF < hi < _INF
            if lo >= hi:
                if lo > hi:
                    raise DomainError(f"interval endpoints out of order: {lo} > {hi}")
                if not -_INF < lo < _INF:
                    raise DomainError("interval endpoints may not both be infinite")
                if not (lc and hc):
                    continue  # degenerate open/half-open interval is empty
            append((lo, not lc, hi, hc))
        for p in points:
            p = float(p) + 0.0
            if not -_INF < p < _INF:
                raise DomainError("set points must be finite reals")
            append((p, False, p, True))
    except OverflowError:
        raise DomainError(_BEYOND_FLOAT) from None
    except (TypeError, ValueError):
        raise DomainError(
            "malformed set: intervals are (lo, hi, lo_closed, hi_closed) with numeric "
            "endpoints, and points are numbers"
        ) from None

    ints.sort()
    ints.append(_END)
    out_ints: list[Interval] = []
    out_pts: list[float] = []
    lo, lo_open, hi, hc = ints[0]
    for t_lo, t_open, t_hi, t_hc in ints[1:]:
        if t_lo < hi or (t_lo == hi and (hc or not t_open)):
            if t_hi > hi:
                hi, hc = t_hi, t_hc
            elif t_hi == hi:
                hc = hc or t_hc
            continue
        if lo == hi:
            out_pts.append(lo)
        else:
            out_ints.append(tuple.__new__(Interval, (lo, hi, not lo_open, hc)))
        lo, lo_open, hi, hc = t_lo, t_open, t_hi, t_hc
    return tuple(out_ints), tuple(out_pts)


class RealSet(Record):
    """Finite union of disjoint intervals plus a finite point set, normalized.

    ``intervals`` may be given as plain ``(lo, hi, lo_closed, hi_closed)``
    tuples; the normalized form holds ``Interval``s.
    """

    __slots__ = ("intervals", "points", "_lows")

    def __init__(self, intervals: Iterable[tuple] = (), points: Iterable[float] = ()) -> None:
        ints, pts = _normalize(intervals, points)
        object.__setattr__(self, "intervals", ints)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_lows", [iv.lo for iv in ints])

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls) -> "RealSet":
        return cls()

    @classmethod
    def reals(cls) -> "RealSet":
        return cls(((-_INF, _INF, False, False),))

    @classmethod
    def point(cls, p: float) -> "RealSet":
        _require_numbers(p)
        return cls((), (p,))

    @classmethod
    def interval(
        cls, lo: float, hi: float, lo_closed: bool = True, hi_closed: bool = True
    ) -> "RealSet":
        _require_numbers(lo, hi)
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
            p = _real(p)
        i = bisect_right(self._lows, p) - 1
        return (i >= 0 and self.intervals[i].contains(p)) or _in_sorted(self.points, p)

    @property
    def bounded_below(self) -> bool:
        return not self.intervals or math.isfinite(self.intervals[0].lo)

    @property
    def bounded_above(self) -> bool:
        return not self.intervals or math.isfinite(self.intervals[-1].hi)

    @property
    def is_bounded(self) -> bool:
        return self.bounded_below and self.bounded_above

    def component_count(self) -> int:
        return len(self.intervals) + len(self.points)

    # -- boolean algebra ------------------------------------------------------

    def union(self, other: "RealSet") -> "RealSet":
        return RealSet(self.intervals + other.intervals, self.points + other.points)

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
                ints.append((lo, hi, lc, hc))
        pts = [p for p in self.points if other.contains(p)]
        pts += [p for p in other.points if self.contains(p)]
        return RealSet(ints, pts)

    def complement(self) -> "RealSet":
        comps = list(self.intervals)
        comps += [(p, p, True, True) for p in self.points]
        comps.sort(key=lambda t: t[0])
        gaps = []
        cur_lo, cur_closed = -_INF, False
        for lo, hi, lc, hc in comps:
            if cur_lo < lo or (cur_lo == lo and cur_closed and not lc):
                gaps.append((cur_lo, lo, cur_closed, not lc))
            cur_lo, cur_closed = hi, not hc
        if cur_lo < _INF:
            gaps.append((cur_lo, _INF, cur_closed, False))
        return RealSet(gaps)

    def difference(self, other: "RealSet") -> "RealSet":
        return self.intersect(other.complement())

    # -- standard topology ----------------------------------------------------

    def interior(self) -> "RealSet":
        return RealSet([(lo, hi, False, False) for lo, hi, _, _ in self.intervals])

    def closure(self) -> "RealSet":
        # normalizing opens the infinite endpoints again
        return RealSet([(lo, hi, True, True) for lo, hi, _, _ in self.intervals], self.points)

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
        return self.component_count() <= 1

    # -- bounds -----------------------------------------------------------------

    def _extremum(self, upper: bool) -> tuple[float, bool]:
        """(value, attained) for sup or inf; raises on empty or unbounded."""
        if self.is_empty:
            raise EmptySetError("the empty set has no supremum or infimum")
        best = None
        attained = False
        if self.points:
            best = max(self.points) if upper else min(self.points)
            attained = True
        if self.intervals:
            iv = self.intervals[-1] if upper else self.intervals[0]
            endpoint = iv.hi if upper else iv.lo
            if best is None or (endpoint > best if upper else endpoint < best):
                best, attained = endpoint, (iv.hi_closed if upper else iv.lo_closed)
        if not math.isfinite(best):
            raise UnboundedError("the set is unbounded on the requested side")
        return best, attained

    def sup_value(self) -> float:
        return self._extremum(upper=True)[0]

    def inf_value(self) -> float:
        return self._extremum(upper=False)[0]

    def max_value(self) -> float | None:
        value, attained = self._extremum(upper=True)
        return value if attained else None

    def min_value(self) -> float | None:
        value, attained = self._extremum(upper=False)
        return value if attained else None


class GeneralizedSet(Record):
    """monad(base) plus finitely many bare real points outside the base."""

    __slots__ = ("base", "extras")

    def __init__(self, base: RealSet = RealSet(), extras: Iterable[float] = ()) -> None:
        cleaned = set()
        for p in extras:
            p = _real(p)
            if not math.isfinite(p):
                raise DomainError("extra points must be finite reals")
            cleaned.add(0.0 if p == 0.0 else p)
        kept = sorted(p for p in cleaned if not base.contains(p))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "extras", tuple(kept))

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
    return RealSet(g.base.intervals, g.base.points + g.extras)


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
            raise NotRepresentable(
                f"difference would puncture the monad at {p!r}"
            )
    extras = [
        p for p in g1.extras if not g2.base.contains(p) and not _in_sorted(g2.extras, p)
    ]
    return GeneralizedSet(base, tuple(extras))


# -- intervals in the generalized continuum -------------------------------------

INTERVAL_KINDS = (
    "closed",
    "open",
    "half_lo",
    "half_hi",
    "ray_ge",
    "ray_gt",
    "ray_le",
    "ray_lt",
    "full",
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
    _require_numbers(a, b)
    a, b = _real(a), _real(b)
    if math.isnan(a) or math.isnan(b):
        raise DomainError("interval endpoints may not be NaN")
    if a > b:
        raise DomainError(f"interval endpoints out of order: {a} > {b}")
    lo_closed = kind in ("closed", "half_lo")
    hi_closed = kind in ("closed", "half_hi")
    return monad(RealSet.interval(a, b, lo_closed, hi_closed))


def length(g: GeneralizedSet) -> float:
    """Length of a bounded interval-shaped set (0 for monads of points and
    for the empty set)."""
    if g.extras:
        raise LengthUndefined("length is only defined for monadic interval sets")
    base = g.base
    if base.is_empty:
        return 0.0
    if not base.intervals and len(base.points) == 1:
        return 0.0
    if len(base.intervals) == 1 and not base.points:
        iv = base.intervals[0]
        if not iv.bounded:
            raise LengthUndefined("length is undefined for unbounded intervals")
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


_TOPO_OPS = {
    "interior": interior,
    "exterior": exterior,
    "boundary": boundary,
    "closure": closure,
}


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


def sup_r(g: GeneralizedSet) -> float:
    return shadow(g).sup_value()


def inf_r(g: GeneralizedSet) -> float:
    return shadow(g).inf_value()


def max_r(g: GeneralizedSet) -> float | None:
    return shadow(g).max_value()


def min_r(g: GeneralizedSet) -> float | None:
    return shadow(g).min_value()


def is_upper_bound(bound, g: GeneralizedSet) -> bool:
    s = shadow(g)
    if s.is_empty:
        return True
    if not s.bounded_above:
        return False
    return sigma(as_generalized(bound)) >= s.sup_value()


def is_lower_bound(bound, g: GeneralizedSet) -> bool:
    s = shadow(g)
    if s.is_empty:
        return True
    if not s.bounded_below:
        return False
    return sigma(as_generalized(bound)) <= s.inf_value()


# -- wire format ---------------------------------------------------------------------


def _enc_endpoint(v: float):
    if v == _INF:
        return "+inf"
    if v == -_INF:
        return "-inf"
    return v


def _dec_float(v) -> float:
    try:
        return float(v)
    except OverflowError:
        raise DomainError(f"malformed set encoding: {_BEYOND_FLOAT}") from None


def _dec_endpoint(v) -> float:
    if type(v) is float:
        return v
    if type(v) is int:
        return _dec_float(v)
    if v == "+inf" or v == "inf":
        return _INF
    if v == "-inf":
        return -_INF
    raise DomainError(f"bad interval endpoint {v!r}")


def realset_to_dict(s: RealSet) -> dict:
    return {
        "intervals": [
            {
                "lo": _enc_endpoint(iv.lo),
                "hi": _enc_endpoint(iv.hi),
                "lo_closed": iv.lo_closed,
                "hi_closed": iv.hi_closed,
            }
            for iv in s.intervals
        ],
        "points": list(s.points),
    }


def _dec_list(data: Mapping, key: str) -> Sequence:
    items = data.get(key, ())
    if not isinstance(items, (list, tuple)):
        raise DomainError(f"malformed set encoding: {key!r} must be a list")
    return items


def _dec_reals(data: Mapping, key: str) -> tuple[float, ...]:
    items = _dec_list(data, key)
    if not set(map(type, items)) <= JSON_NUMBER_TYPES:
        raise DomainError(f"malformed set encoding: {key!r} must hold numbers")
    return tuple(map(_dec_float, items))


def _dec_interval(item) -> tuple:
    try:
        lo, hi = item["lo"], item["hi"]
        lo_closed, hi_closed = item.get("lo_closed", True), item.get("hi_closed", True)
    except (KeyError, TypeError, AttributeError):
        raise DomainError(f"malformed interval encoding: {item!r}") from None
    if type(lo_closed) is not bool or type(hi_closed) is not bool:
        raise DomainError(f"malformed interval encoding: closedness must be true or false: {item!r}")
    return (_dec_endpoint(lo), _dec_endpoint(hi), lo_closed, hi_closed)


def realset_from_dict(data: Mapping) -> RealSet:
    if not isinstance(data, Mapping):
        raise DomainError(f"malformed set encoding: {data!r}")
    ints = [_dec_interval(item) for item in _dec_list(data, "intervals")]
    return RealSet(ints, _dec_reals(data, "points"))


def set_to_dict(g: GeneralizedSet) -> dict:
    out = realset_to_dict(g.base)
    out["extras"] = list(g.extras)
    return out


def set_from_dict(data: Mapping) -> GeneralizedSet:
    base = realset_from_dict(data)
    return GeneralizedSet(base, _dec_reals(data, "extras"))


def set_to_json(g: GeneralizedSet) -> str:
    return json.dumps(set_to_dict(g))


def _loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise DomainError(f"invalid JSON: {exc}") from exc


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
    "monad": (lambda text: set_to_dict(monad(realset_from_dict(_loads(text)))), 1),
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
