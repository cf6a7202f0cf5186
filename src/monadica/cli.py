"""Command-line front end.

Exit status: 0 on success, 1 on a domain error (rendered as JSON on
stdout), 2 on verification failure or bad usage.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shlex
import sys

# Only the ring and the errors load for every verb; each verb imports the
# layers it uses in _dispatch.
from . import core
from .errors import DomainError, MonadicaError


def _default_seed() -> int:
    """``MONADICA_SEED``, or 0 when it is unset or empty."""
    text = os.environ.get("MONADICA_SEED", "")
    if not text:
        return 0
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"MONADICA_SEED must be an integer, not {text!r}") from None


def _print_json(data, pretty: bool = False) -> None:
    """Print strict JSON: a non-finite number in a result is an error."""
    try:
        text = json.dumps(data, indent=2 if pretty else None, allow_nan=False)
    except ValueError:
        raise DomainError("result is not finite, and JSON has no Infinity or NaN") from None
    print(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monadica",
        description="Exact arithmetic with nilpotent infinitesimals and a "
        "limit-free derivative engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at a generalized value")
    p.add_argument("expr")
    p.add_argument("--at", required=True, metavar="VALUE_JSON")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("diff", help="derivative value at the shadow of a point")
    p.add_argument("expr")
    p.add_argument("--at", required=True, metavar="VALUE_JSON")
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("taylor", help="partial sum, remainder bound, and witness")
    p.add_argument("expr")
    p.add_argument("--center", type=float, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--at", required=True, metavar="VALUE_JSON")
    p.add_argument("--domain", nargs=2, type=float, default=(-math.inf, math.inf))
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("seq", help="inspect the sequence a value denotes")
    seq_sub = p.add_subparsers(dest="seq_command", required=True)
    q = seq_sub.add_parser("print", help="print a prefix of the sequence")
    q.add_argument("value", metavar="VALUE_JSON")
    q.add_argument("--terms", type=int, default=16)

    p = sub.add_parser("sets", help="set algebra on monads of real sets")
    # a metavar, or argparse would list (and so import) the ops at build time
    p.add_argument(
        "op", choices=_LazyChoices(".sets", "JSON_OPS"), metavar="op",
        help="one of: %(choices)s",
    )
    p.add_argument("args", nargs="*", metavar="JSON")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument(
        "--suite", choices=_LazyChoices(".verify", "SUITES"), default=None, metavar="SUITE",
        help="run one suite: %(choices)s",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pretty", action="store_true")

    sub.add_parser("repl", help="read commands from stdin, one per line")
    return parser


def _cmd_sets(ns) -> int:
    from . import sets

    fn, arity = sets.JSON_OPS[ns.op]
    if len(ns.args) != arity:
        raise MonadicaError(f"sets {ns.op} expects {arity} JSON argument(s)")
    _print_json(fn(*ns.args), ns.pretty)
    return 0


class _LazyChoices:
    """The sorted keys of a registry in a submodule, read when argparse
    checks or lists them, so that only the verb that uses the registry
    imports its module."""

    def __init__(self, module: str, registry: str) -> None:
        self._module, self._registry = module, registry

    def _names(self) -> list[str]:
        module = importlib.import_module(self._module, __package__)
        return sorted(getattr(module, self._registry))

    def __contains__(self, name) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


def _cmd_verify(ns) -> int:
    from . import verify

    seed = ns.seed if ns.seed is not None else _default_seed()
    results = (
        verify.run_suite(ns.suite, seed) if ns.suite else verify.run_all(seed)
    )
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    summary = {
        "suites": sorted({r.suite for r in results}),
        "checks": len(results),
        "failed": len(failed),
        "seed": seed,
    }
    _print_json(summary, ns.pretty)
    return 2 if failed else 0


def _dispatch(ns) -> int:
    if ns.command == "eval":
        from .expr import gen_eval, parse

        value = gen_eval(parse(ns.expr), core.from_json(ns.at))
        _print_json(core.to_dict(value), ns.pretty)
        return 0
    if ns.command == "diff":
        from .expr import differentiate, parse

        x = core.from_json(ns.at)
        d = differentiate(parse(ns.expr), ns.order)
        _print_json(d.eval_real(core.sigma(x)))
        return 0
    if ns.command == "taylor":
        from .calculus import NaturalExtension, taylor_expand
        from .expr import parse

        lo, hi = ns.domain
        f = NaturalExtension.on_interval(parse(ns.expr), lo, hi)
        x = core.from_json(ns.at)
        result = taylor_expand(f, ns.center, ns.order, x)
        _print_json(result.to_dict(), ns.pretty)
        return 0
    if ns.command == "seq":
        from . import seq as seq_mod

        x = core.from_json(ns.value)
        _print_json(seq_mod.prefix(x, ns.terms))
        return 0
    if ns.command == "sets":
        return _cmd_sets(ns)
    if ns.command == "verify":
        return _cmd_verify(ns)
    if ns.command == "repl":
        return _repl()
    raise MonadicaError(f"unknown command {ns.command!r}")


def _repl() -> int:
    parser = _build_parser()
    for line in sys.stdin:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            break
        try:
            try:
                argv = shlex.split(line)
            except ValueError as exc:  # an unbalanced quote or a trailing backslash
                raise DomainError(f"cannot split the line: {exc}") from None
            if argv and argv[0] == "repl":
                print(json.dumps({"error": "repl cannot nest"}))
                continue
            ns = parser.parse_args(argv)
            _dispatch(ns)
        except SystemExit:
            continue  # argparse already reported the usage problem
        except MonadicaError as exc:
            print(json.dumps({"error": str(exc)}))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return _dispatch(ns)
    except MonadicaError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
