"""Every immutable value of the library is a ``core.Record``: its fields are
its ``__slots__``, and it pickles and copies to an equal value; an
expression node, which is interned, to the very same object."""

import copy
import dataclasses
import math
import pickle

import pytest

from monadica import core, seq
from monadica.calculus import (
    MonadRule,
    NaturalExtension,
    PiecewiseExtension,
    RegionReport,
    inverse_extension,
    taylor_expand,
)
from monadica.core import make
from monadica.expr import Var, differentiate, parse
from monadica.sets import GeneralizedSet, RealSet
from monadica.verify import CheckResult

ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _extensions():
    f = NaturalExtension.on_interval(parse("exp(x) + x"), -2.0, 2.0)
    f.real_fn(2)
    f.deriv_exprs(3)
    return {"on_interval": f, "inverse": inverse_extension(f)}


@pytest.mark.parametrize("kind", ["on_interval", "inverse"])
@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_natural_extensions_with_filled_caches_round_trip(kind, trip):
    f = _extensions()[kind]
    got = ROUND_TRIPS[trip](f)
    assert type(got) is NaturalExtension
    assert got == f and repr(got) == repr(f) and hash(got) == hash(f)
    for x in (0.5, make(1.5, {"h": 2.0})):
        assert got.eval_at(x) == f.eval_at(x)


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_a_node_round_trips_to_the_same_object(trip):
    node = differentiate(parse("exp(sin(x)) * x^3 + 2.5 / (1 + x^2)"), 2)
    assert ROUND_TRIPS[trip](node) is node


def _piecewise():
    return PiecewiseExtension((0.0,), (parse("-x"), Var()), (MonadRule(0.0, 0.0),))


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_a_piecewise_copy_rebuilds_its_gap_extensions(trip):
    p = _piecewise()
    got = ROUND_TRIPS[trip](p)
    assert got._gaps == p._gaps and got._gaps is not p._gaps
    for s in (-2.0, 3.0):
        x = make(s, {"h": 2.0})
        want = make(abs(s), {"h": math.copysign(2.0, s)})
        assert got._gaps[s > 0].eval_at(x) == p.eval_at(x) == want
        assert got.deriv_at(s) == p.deriv_at(s)


# one instance of every record but the natural extensions and the nodes
RECORDS = {
    "GeneralizedReal": make(1.0, {"e:1": 2.0}),
    "RealSet": RealSet(((0.0, 1.0, True, False),), (3.0,)),
    "GeneralizedSet": GeneralizedSet(RealSet.open(0.0, 1.0), (1.0,)),
    "TaylorExpansion": taylor_expand(NaturalExtension.on_interval(parse("sin(x)")), 0.0, 2, 0.5),
    "MonadRule": MonadRule(1.0, -2.0),
    "LimitProbe": _piecewise().limit_probe(0.0),
    "RegionReport": RegionReport("all t", "pass", "ok"),
    "PiecewiseExtension": _piecewise(),
    "SequenceGenerator": seq.harmonic(),
    "CheckResult": CheckResult("core", "law", True, "3 cases"),
}


@pytest.mark.parametrize("name, trip", [
    (name, trip) for name in sorted(RECORDS) for trip in sorted(ROUND_TRIPS)
    # a generator's term is a lambda, which pickle cannot name
    if (name, trip) != ("SequenceGenerator", "pickle")
])
def test_every_record_round_trips_to_an_equal_value(name, trip):
    value = RECORDS[name]
    got = ROUND_TRIPS[trip](value)
    assert type(got) is type(value)
    assert got == value and repr(got) == repr(value) and hash(got) == hash(value)


def test_reprs_keep_the_field_format():
    assert repr(RECORDS["GeneralizedReal"]) == "GeneralizedReal(shadow=1.0, dpart={'e:1': 2.0})"
    assert repr(RECORDS["MonadRule"]) == "MonadRule(value=1.0, slope=-2.0)"
    assert repr(GeneralizedSet()) == "GeneralizedSet(base=RealSet(intervals=(), points=()), extras=())"
    assert repr(_extensions()["on_interval"]).startswith("NaturalExtension(expr=Add(lhs=Exp(")


ALL_RECORDS = dict(RECORDS, NaturalExtension=_extensions()["on_interval"], Node=parse("x + 1"))


@pytest.mark.parametrize("name", sorted(ALL_RECORDS))
def test_records_have_no_dict_and_fields_that_cannot_change(name):
    value = ALL_RECORDS[name]
    cls = type(value)
    assert issubclass(cls, core.Record) and not dataclasses.is_dataclass(cls)
    assert "__slots__" in vars(cls)
    assert not hasattr(value, "__dict__")
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_derived_slots_are_not_fields():
    assert RealSet._fields == ("intervals", "points")
    assert NaturalExtension._fields == ("expr", "lo", "hi")
    assert PiecewiseExtension._fields == ("breakpoints", "gap_exprs", "monad_rules")
    # a grown cache leaves equality and the hash alone
    f, g = (NaturalExtension.on_interval(parse("sin(x)")) for _ in range(2))
    f.deriv_exprs(4)
    assert f == g and hash(f) == hash(g)

