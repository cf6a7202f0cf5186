"""Generalized real numbers.

A value is a real *shadow* plus a finite linear combination of named
infinitesimal generators (the *differential part*).  Products of
infinitesimals vanish, so every ring operation keeps the differential part
inside the span of the generators: nothing beyond a sparse coefficient
vector ever needs to be materialized.

The decomposition ``x = sigma(x) + differential(x)`` is unique and is the
representation itself.  Equality is structural: same shadow, same
coefficient vector.
"""

from __future__ import annotations

import enum
import json
import math
import operator
import struct
import sys
import weakref
from _weakref import _remove_dead_weakref
from typing import Mapping

from .errors import DomainError, NonFiniteInput, NotInvertible

#: Generator id used for the nonreal density witness.
DENSITY_WITNESS_ID = "e:1"


class Ordering(enum.Enum):
    """Three-way comparison: strict order on shadows, no order inside monads."""

    LESS = "less"
    INDISCERNIBLE = "indiscernible"
    GREATER = "greater"


#: The types ``json.loads`` gives numbers: booleans and strings are not numbers.
JSON_NUMBER_TYPES = frozenset({int, float})


def _real(value, what: str) -> float:
    """The one gate for numbers from callers: an int or a float, by exact
    type as ``JSON_NUMBER_TYPES`` says, as a float.  NaN and infinities
    pass, for the caller to check; ``what`` names the value in the error."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise DomainError(f"{what} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} lies beyond the float range") from None


def _count(value, what: str, lo: int, hi: int | None = None) -> int:
    """The integer twin of ``_real``: an int by exact type, so a bool is
    refused, from lo up to hi (no upper bound when hi is None); ``what``
    names the value in the error."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"from {lo} to {hi}"
        raise DomainError(f"{what} must be an integer {bound}, not {value!r}")
    return value


def _clean(value: float, what: str) -> float:
    v = _real(value, what)
    if not math.isfinite(v):
        raise NonFiniteInput(f"{what} must be a finite real, got {value!r}")
    # no signed-zero distinction
    return 0.0 if v == 0.0 else v


_BITS = struct.Struct("<d").pack


def _key(value):
    """The value as interning and ``expr._Emit.bind`` tell values apart: a
    record by its own equality (an interned one's is identity); a float by
    its bits, so 0.0 and -0.0 and NaNs of either sign stay apart; an int or
    str by type and value; any other object by identity."""
    if isinstance(value, Record):
        return value
    kind = type(value)
    if kind is float:
        return _BITS(value)
    return kind, value if kind is int or kind is str else id(value)


#: The live interned records, each under its class and the keys of its fields,
#: and the live trees ``expr.parse`` built, each also under (parse, its text).
#: The references are weak, so a record that no caller holds leaves the table.
_INTERNED: dict[tuple, weakref.ref] = {}


def _intern(key, record):
    """The live record under key: record, unless another thread's came first.
    An entry is removed only while its reference is dead (atomically, as
    WeakValueDictionary does), so a live record put in its place stays."""
    ref = weakref.ref(record, lambda _: _remove_dead_weakref(_INTERNED, key))
    while (found := _INTERNED.setdefault(key, ref)()) is None:
        _remove_dead_weakref(_INTERNED, key)  # a dead record not dropped yet
    return found


class Record:
    """Base class of the library's immutable values.  A record declares its
    fields once, as its ``__slots__``, and gets from them a constructor taking
    them in that order, immutability, equality and hashing by value, a repr,
    pickling and copying.  Slots named ``_...`` hold derived state, not fields;
    a record that defines its own ``__init__`` keeps it and sets its slots
    with ``object.__setattr__``.

    A class that sets ``_interned`` (and a ``__weakref__`` slot) is built once
    per distinct value: its constructor returns the live record whose fields
    have the same ``_key``s, so equal records are one object, compared and
    hashed by identity, and a copy or an unpickled record is that object."""

    __slots__ = ()
    _interned = False

    def __init_subclass__(cls):
        # compiled once per class, so a record costs what a hand-written
        # __init__ and field tuple cost (an interned one a lookup more); the
        # slot setters go around __setattr__ below
        cls._fields = names = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # the fields as a tuple, fetched in C: attrgetter gives one value for
        # one name and a tuple for more
        get = operator.attrgetter(*names) if names else None
        cls._values = (
            (lambda self: get(self)) if len(names) > 1
            else (lambda self: (get(self),)) if names
            else (lambda self: ())
        )
        if "__init__" in vars(cls):
            return
        env = {f"set_{n}": getattr(cls, n).__set__ for n in names}
        params = "".join(f", {n}" for n in names)
        sets = "".join(f"    set_{n}(self, {n})\n" for n in names)
        if not cls._interned:
            body = sets or "    pass\n"
            exec(f"def __init__(self{params}):\n{body}", env)
            cls.__init__ = env["__init__"]
            return
        env.update(key=_key, get=_INTERNED.get, new=object.__new__, intern=_intern)
        keys = "".join(f", key({n})" for n in names)
        exec(
            f"def __new__(cls{params}):\n    k = (cls{keys})\n    ref = get(k)\n"
            "    if ref is not None:\n        self = ref()\n"
            "        if self is not None:\n            return self\n"
            f"    self = new(cls)\n{sets}    return intern(k, self)\n",
            env,
        )
        cls.__new__ = staticmethod(env["__new__"])
        cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        cls.__copy__ = cls.__deepcopy__ = lambda self, memo=None: self  # no field walked

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class GeneralizedReal(Record):
    """Shadow plus sparse differential part, kept in canonical form.

    Canonical form stores no zero coefficients, so a value is real iff
    ``dpart`` is empty and infinitesimal iff ``shadow`` is zero.
    """

    __slots__ = ("shadow", "dpart")

    def __init__(self, shadow: float = 0.0, dpart: Mapping[str, float] = {}) -> None:
        shadow = _clean(shadow, "shadow")
        coeffs: dict[str, float] = {}
        for gid, c in dpart.items():
            c = _clean(c, f"coefficient of {gid!r}")
            if c != 0.0:
                coeffs[str(gid)] = c
        object.__setattr__(self, "shadow", shadow)
        object.__setattr__(self, "dpart", coeffs)

    # -- structure ---------------------------------------------------------

    @property
    def is_real(self) -> bool:
        return not self.dpart

    @property
    def is_infinitesimal(self) -> bool:
        return self.shadow == 0.0

    def coefficient(self, gid: str) -> float:
        return self.dpart.get(gid, 0.0)

    def differential(self) -> "GeneralizedReal":
        """The unique infinitesimal dx with x = shadow + dx."""
        return GeneralizedReal(0.0, dict(self.dpart))

    def __hash__(self) -> int:
        return hash((self.shadow, frozenset(self.dpart.items())))

    def __str__(self) -> str:
        parts = [repr(self.shadow)]
        for gid in sorted(self.dpart):
            parts.append(f"{self.dpart[gid]!r}*d[{gid}]")
        return " + ".join(parts)

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, m):
        if type(m) is not int:
            return NotImplemented
        return pow_nat(self, m)

    def __lt__(self, other):
        return lt(self, other)

    def __gt__(self, other):
        return lt(other, self)

    def __le__(self, other):
        return lesssim(self, other)

    def __ge__(self, other):
        return lesssim(other, self)


_set_shadow = GeneralizedReal.shadow.__set__
_set_dpart = GeneralizedReal.dpart.__set__


def _from_floats(shadow: float, coeffs: dict[str, float]) -> GeneralizedReal:
    """A value from a float shadow and a dict of float coefficients under
    str ids, as the library computes them: the checks, messages and
    canonical form of ``GeneralizedReal(shadow, coeffs)`` without its
    re-coercion of every number and id.  ``coeffs`` is kept, not copied."""
    # a finite total proves every term finite; a total that overflows only
    # sends the value through the full checks
    if not math.isfinite(shadow + sum(coeffs.values())) or 0.0 in coeffs.values():
        return GeneralizedReal(shadow, coeffs)
    x = object.__new__(GeneralizedReal)
    _set_shadow(x, 0.0 if shadow == 0.0 else shadow)
    _set_dpart(x, coeffs)
    return x


def _tangent(x: GeneralizedReal, value: float, slope: float) -> GeneralizedReal:
    """value + slope * dx for x = shadow + dx: a first-order result, built
    from a float value and slope at the shadow of x.  A result that is not
    finite raises NonFiniteInput, which names it as the result at that shadow."""
    try:
        return _from_floats(float(value), {g: slope * c for g, c in x.dpart.items()})
    except NonFiniteInput as exc:
        raise NonFiniteInput(f"the extension is not finite at shadow {x.shadow!r}") from exc


ZERO = GeneralizedReal(0.0)
ONE = GeneralizedReal(1.0)


def as_generalized(value) -> GeneralizedReal:
    """Embed a plain number; pass existing values through unchanged."""
    if isinstance(value, GeneralizedReal):
        return value
    return GeneralizedReal(value)


def make(shadow: float, dpart: Mapping[str, float] | None = None) -> GeneralizedReal:
    """Build a value from its decomposition (zero coefficients are dropped)."""
    return GeneralizedReal(shadow, dict(dpart) if dpart else {})


# -- ring operations --------------------------------------------------------


def add(x, y) -> GeneralizedReal:
    x, y = as_generalized(x), as_generalized(y)
    coeffs = dict(x.dpart)
    for gid, c in y.dpart.items():
        coeffs[gid] = coeffs.get(gid, 0.0) + c
    return _from_floats(x.shadow + y.shadow, coeffs)


def neg(x) -> GeneralizedReal:
    x = as_generalized(x)
    return _from_floats(-x.shadow, {g: -c for g, c in x.dpart.items()})


def sub(x, y) -> GeneralizedReal:
    return add(x, neg(y))


def mul(x, y) -> GeneralizedReal:
    """Product; infinitesimal times infinitesimal contributes nothing."""
    x, y = as_generalized(x), as_generalized(y)
    coeffs: dict[str, float] = {}
    for gid, c in y.dpart.items():
        coeffs[gid] = x.shadow * c
    for gid, c in x.dpart.items():
        coeffs[gid] = coeffs.get(gid, 0.0) + y.shadow * c
    return _from_floats(x.shadow * y.shadow, coeffs)


_MIN_NORMAL = sys.float_info.min


def inv(x) -> GeneralizedReal:
    """Multiplicative inverse; defined exactly for non-infinitesimal values."""
    x = as_generalized(x)
    s = x.shadow
    if s == 0.0:
        raise NotInvertible("infinitesimals have no multiplicative inverse")
    ss = s * s
    if ss >= _MIN_NORMAL:
        coeffs = {g: -(c / ss) for g, c in x.dpart.items()}
    else:  # s * s underflows: divide by s twice
        coeffs = {g: -(c / s / s) for g, c in x.dpart.items()}
    return _from_floats(1.0 / s, coeffs)


def div(y, x) -> GeneralizedReal:
    return mul(y, inv(x))


def pow_nat(x, m: int) -> GeneralizedReal:
    """x**m for a natural exponent (m = 0 gives 1)."""
    if _count(m, "exponent", 0) == 0:
        return ONE
    x = as_generalized(x)
    try:
        p = x.shadow**m
        factor = m * x.shadow ** (m - 1)
    except OverflowError:
        raise NonFiniteInput(f"a power of {x.shadow!r} exceeds the float range") from None
    return _from_floats(p, {g: factor * c for g, c in x.dpart.items()})


def root(x, m: int) -> GeneralizedReal:
    """The unique positive m-th root of a positive value (m > 1)."""
    _count(m, "root degree", 2)
    x = as_generalized(x)
    s = x.shadow
    if s <= 0.0:
        raise DomainError("root requires a positive value (shadow > 0)")
    try:
        r = s ** (1.0 / m)
        # one Newton step cleans up the 1/m rounding (e.g. 8**(1/3))
        for _ in range(2):
            r -= (r**m - s) / (m * r ** (m - 1))
        denom = m * r ** (m - 1)
    except OverflowError:
        raise NonFiniteInput(f"a root of {s!r} exceeds the float range") from None
    return _from_floats(r, {g: c / denom for g, c in x.dpart.items()})


# -- decomposition and quotient ---------------------------------------------


def sigma(x) -> float:
    """The shadow: the real each value is indiscernible from."""
    return as_generalized(x).shadow


def differential(x) -> GeneralizedReal:
    """dx, the infinitesimal part of the unique decomposition."""
    return as_generalized(x).differential()


# -- order -------------------------------------------------------------------


def cmp3(x, y) -> Ordering:
    sx, sy = sigma(x), sigma(y)
    if sx < sy:
        return Ordering.LESS
    if sx > sy:
        return Ordering.GREATER
    return Ordering.INDISCERNIBLE


def lt(x, y) -> bool:
    return sigma(x) < sigma(y)


def indiscernible(x, y) -> bool:
    return sigma(x) == sigma(y)


def lesssim(x, y) -> bool:
    """Less than or indiscernible from."""
    return sigma(x) <= sigma(y)


def archimedean_witness(x, y) -> int:
    """Minimal natural m with m*x > y, for positive x."""
    x, y = as_generalized(x), as_generalized(y)
    sx, sy = x.shadow, y.shadow
    if sx <= 0.0:
        raise DomainError("archimedean witness requires x > 0")
    try:
        m = max(1, math.floor(sy / sx) + 1)
        while m * sx <= sy:
            m += 1
        while m > 1 and (m - 1) * sx > sy:
            m -= 1
    except OverflowError as exc:
        raise DomainError(
            f"archimedean witness for {sy!r} / {sx!r} exceeds the float range"
        ) from exc
    return m


def _between(x: float, y: float) -> float:
    """The float nearest the midpoint of finite floats x < y, halved before
    adding where the sum overflows; it lies strictly between them whenever
    a float does, and when none does it is a DomainError naming the pair."""
    mid = (x + y) / 2.0
    if mid == math.inf or mid == -math.inf:
        mid = x / 2.0 + y / 2.0
    if not x < mid < y:
        raise DomainError(f"no float lies strictly between {x!r} and {y!r}")
    return mid


def density_real_between(x, y) -> float:
    """A real strictly between two ordered values (midpoint of the shadows)."""
    x, y = as_generalized(x), as_generalized(y)
    if not lt(x, y):
        raise DomainError("density requires strictly ordered endpoints")
    return _between(x.shadow, y.shadow)


def density_nonreal_between(xi: float, eta: float) -> GeneralizedReal:
    """A nonreal value strictly between two reals (midpoint plus an impulse)."""
    xi, eta = _clean(xi, "xi"), _clean(eta, "eta")
    if not xi < eta:
        raise DomainError("density requires strictly ordered endpoints")
    return GeneralizedReal(_between(xi, eta), {DENSITY_WITNESS_ID: 1.0})


# -- wire format --------------------------------------------------------------

def to_dict(x) -> dict:
    x = as_generalized(x)
    return {"shadow": x.shadow, "d": {g: x.dpart[g] for g in sorted(x.dpart)}}


def from_dict(data: Mapping) -> GeneralizedReal:
    try:
        shadow = data["shadow"]
        dpart = data.get("d", {})
    except (TypeError, KeyError) as exc:
        raise DomainError(f"malformed value encoding: {data!r}") from exc
    if not isinstance(dpart, Mapping):
        raise DomainError('value encoding field "d" must be an object')
    if not {type(shadow), *map(type, dpart.values())} <= JSON_NUMBER_TYPES:
        raise DomainError(f"malformed value encoding: numbers expected in {data!r}")
    return GeneralizedReal(shadow, dict(dpart))


def to_json(x) -> str:
    return json.dumps(to_dict(x))


def _loads(text: str):
    """``json.loads``, where text that is not JSON is a ``DomainError``."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise DomainError(f"invalid JSON: {exc}") from exc


def from_json(text: str) -> GeneralizedReal:
    return from_dict(_loads(text))
