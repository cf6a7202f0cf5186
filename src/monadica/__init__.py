"""Exact arithmetic with nilpotent infinitesimals.

Values are a real shadow plus a finite combination of named infinitesimal
generators; products of infinitesimals vanish.  On top of that ring the
package provides monads and shadows of real sets, interval topology, and a
limit-free derivative engine with Taylor, mean-value, and inverse-function
machinery, all backed by executable verification suites.

The public names below load lazily: ``monadica.taylor_expand`` imports
``monadica.calculus`` on first access, so a program (or a CLI verb) pays only
for the layers it uses.
"""

import importlib

# Eager: small, and every caller needs the error types.
from . import errors

#: Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "calculus": (
            "InverseExpr", "LimitProbe", "MonadRule", "NaturalExtension",
            "PiecewiseExtension", "RegionReport", "TaylorExpansion", "compose_ext",
            "image_set", "inverse_extension", "mean_value_point", "ode_verify",
            "taylor_expand",
        ),
        "core": (
            "ONE", "ZERO", "GeneralizedReal", "Ordering", "add", "archimedean_witness",
            "as_generalized", "cmp3", "density_nonreal_between", "density_real_between",
            "differential", "div", "from_dict", "from_json", "indiscernible", "inv",
            "lesssim", "lt", "make", "mul", "neg", "pow_nat", "root",
            "sigma", "sub", "to_dict", "to_json",
        ),
        "errors": (
            "DomainError", "EmptySetError", "LengthUndefined", "MonadicaError",
            "NonFiniteInput", "NotDifferentiable", "NotInjective", "NotInvertible",
            "NotMonadic", "NotRepresentable", "OutOfDomain", "ProvisoViolated",
            "RegionMismatch", "UnboundedError", "UnknownGenerator", "VanishingDerivative",
        ),
        "expr": (
            "Add", "Const", "Cos", "Div", "Exp", "Expr", "Log", "Mul", "Neg", "PowInt",
            "PowReal", "Root", "Sin", "Sub", "Var", "compose", "differentiate", "gen_eval",
            "parse", "pow_int",
        ),
        "seq": (
            "Catalog", "DEFAULT_CATALOG", "SequenceGenerator", "convergence_witness",
            "geometric", "harmonic", "impulse", "oracle_binary", "oracle_inv",
            "oracle_pow_nat", "prefix", "term",
        ),
        "sets": (
            "GeneralizedSet", "Interval", "RealSet", "boundary", "closure", "difference",
            "exterior", "hat_interval", "inf_r", "interior", "intersect", "is_closed",
            "is_compact", "is_connected", "is_lower_bound", "is_open", "is_upper_bound",
            "length", "max_r", "member", "min_r", "monad", "realset_from_dict",
            "realset_to_dict", "set_from_dict", "set_from_json", "set_to_dict",
            "set_to_json", "shadow", "sup_r", "topo", "union",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's submodule on first access (PEP 562), or a
    submodule itself (``monadica.sets``), and cache the value here."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
